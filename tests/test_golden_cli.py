"""The golden CLI set: each command's exit code and the sha256 of its stdout,
run in-process.  A change that alters a row must say which and why.  The
family-row caches are cleared before each command, as a fresh process would
have them, since an exit 3 can depend on what they hold.

Fixing ROADMAP item 1 (the sign of the twisted Cartan step) will change the
`act` rows on twisted products (the sign3, sign5 and zz2 products) on
purpose; re-record those rows with that fix and say which changed.
"""

import contextlib
import hashlib
import io
import json

import pytest

from dyerlashof.cli import main
from dyerlashof.dlalgebra import _family_row, adem_expand

_SIGN3 = {"version": 1, "p": 3, "grading": {"free_rank": 1, "torsion_orders": []},
          "chi": [-1], "generators": [{"name": "x", "g": [1], "n": 0}],
          "max_degree": 10, "max_charge": 9}
# the context files an argv names as @name
CONTEXTS = {
    "sign3": _SIGN3,
    "untw3": dict(_SIGN3, chi=[1], generators=[{"name": "x", "g": [1], "n": 2}]),
    "untw0": dict(_SIGN3, chi=[1]),
    "sign5": dict(_SIGN3, p=5, max_charge=25),
    "zz2": {"version": 1, "p": 3, "grading": {"free_rank": 1, "torsion_orders": [2]},
            "chi": [-1, -1], "generators": [{"name": "x", "g": [1, 0], "n": 0},
                                            {"name": "z", "g": [0, 1], "n": -1}],
            "max_degree": 6, "max_charge": 9},
    "xyz": dict(_SIGN3, chi=[1], generators=[{"name": n, "g": [1], "n": d}
                                             for n, d in (("x", 2), ("y", 4), ("z", 6))]),
    # Z^2 + Z/3 with generators of negative degree
    "neg": {"version": 1, "p": 3, "grading": {"free_rank": 2, "torsion_orders": [3]},
            "chi": [-1, 1, 1], "generators": [{"name": "a", "g": [1, 0, 1], "n": -2},
                                              {"name": "b", "g": [0, 1, 2], "n": 3},
                                              {"name": "c", "g": [1, 1, 0], "n": -1}],
            "max_degree": 2, "max_charge": 15},
}
C = "--context"

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    # README
    (["rewrite", "Q^{2} Q^{0}", "--p", "3"], 0,
     "61dd2c71e34c33db78558983487900ad7939d38a604e9d9369a89f44049ab035"),
    (["rewrite", "Q^{3/2} bQ^{1/2}", "--p", "3"], 0,
     "1d9bd7dd62cd718c43a095a57f682a787e6b029466c7dd5a27152f09dc0215ca"),
    (["rewrite", "Q^{1} Q^{1/2}"], 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (["basis", C, "@sign3", "4", "1"], 0,
     "65a66bbf079d4b63c43f349a6cfbe3ffbb23112c90874940abd7f4965ebfabb1"),
    (["table", C, "@sign3", "--format", "tsv"], 0,
     "e8487371b6e5b772b0191ad69b4eafd024829aac5c4e6ede95885a9a690f2118"),
    (["act", C, "@sign3", "Q^{1/2}", "x"], 0,
     "e5ce97e658060eb625eea5c3cf7bdbbf63e4c45dc5fbafd961f4caf8934e4010"),
    (["act", C, "@untw3", "Q^{1}", "x"], 0,
     "dc69d0e6d0134f8888a7a24adf78bd0f487b4d3d4953b13766715287a4a8f881"),
    (["dmodule", C, "@sign3"], 0,
     "7cc978fffcb34023baca9a8f093e6eda907b2ec820bf60750aa998f81c730a42"),
    (["example", "sym-sign", "--p", "3", "--max-degree", "10", "--max-charge", "6"], 0,
     "c3d0cb612b151f1303e198af3d9ae45697ff234fdde0181b291830feb68f25f8"),
    (["example", "alternating", "--p", "3", "--max-degree", "10", "--max-charge", "6", "--format", "json"], 0,
     "f7574ed101d06f39148970259a27f943965ad720de4018a6b1ab726647d25b06"),
    # act: twisted products (item 1 will change these), sums, powers
    (["act", C, "@sign3", "Q^{2}", "x * Q^{1/2} x"], 0,
     "1c9718bd8ab580a0b26f1562552dbb530d526493008fb7d10bad6c0d0275bc84"),
    (["act", C, "@sign3", "Q^{7/2}", "x * Q^{1/2} x * bQ^{3/2} x"], 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (["act", C, "@sign3", "bQ^{9/2}", "x * Q^{1/2} x * bQ^{3/2} x"], 0,
     "bf1a52cca04ccc31a052f063bed4d22015eb3791360f3c648458b07222e9743c"),
    (["act", C, "@sign3", "bQ^{2}", "x * Q^{1/2} x"], 0,
     "cbcd13bf7784c2c716bdb05aaa25ebd993aa62ddf3352260c0ca01dbfcdce5dc"),
    (["act", C, "@sign3", "Q^{4}", "bQ^{1/2} x * Q^{3/2} x"], 0,
     "0a024fa0d01433e41e3717d1d0a3fc26b699e64a5b0b48362c1d5cb7e7c1ab79"),
    (["act", C, "@sign3", "bQ^{5}", "bQ^{1/2} x * Q^{3/2} x"], 0,
     "1b3daa15a1b9044dc7761deb06d1d194907a6648ef2180c7d4128aa30ef5b9fb"),
    (["act", C, "@sign3", "bQ^{4}", "bQ^{1/2} x * Q^{3/2} x"], 0,
     "1dbd0c595f30d86ab33b1349a2c5cf1768756b15702ef32fc5f4e6cc78491bf4"),
    (["act", C, "@sign3", "Q^{12}", "bQ^{1/2} x * Q^{3/2} x"], 0,
     "7f390261a3605d203387ccd52101a501b923fe64c43a731a3fa6d36b64613321"),
    (["act", C, "@sign3", "Q^{1/2}", "x + 2 * bQ^{1/2} x"], 0,
     "bce65060484d1796e19bf3e8b3a81f0dc4c86abc7357d8627a80d5527dbddb79"),
    (["act", C, "@sign3", "Q^{3}", "x * Q^{1/2} x + 2 * x * bQ^{3/2} x"], 0,
     "9cfa754f22ce1375d44f9642aabc6630f35f33f976810a9a41fda464c7f97344"),
    (["act", C, "@untw3", "Q^{2}", "x^2"], 0,
     "fc535717794596be531f5d67e57d401f5438eb0d6dc0cfa3825a542ddd2ae460"),
    (["act", C, "@untw3", "Q^{4}", "x * Q^{1} x"], 0,
     "98ab508f28938924bff7cb983bb86e52731a2e04d831f1c67b8efad82f09eb28"),
    (["act", C, "@untw3", "Q^{6}", "x * Q^{1} x"], 0,
     "dd82ce2a3417e34cef278dd32ce51cb6d2336e8bd8d35e557df56cd6e3770fc6"),
    (["act", C, "@untw3", "bQ^{5}", "x^2"], 0,
     "449611e572c028f9cf253c56aa9ea271cf9ad4520e8dbb3ca7757fe9ed6b9908"),
    (["act", C, "@untw3", "Q^{5}", "x^2 + 2 * Q^{2} x"], 0,
     "60b2803cd9e8c6fad21bb5de38d99c531b90cace1cf503d4a16ebc9dbd8308a2"),
    (["act", C, "@untw0", "Q^{0}", "x^120"], 0,
     "7f810286f08af0b9e044d6b4f90f0da08a9d3237c80b82893b58c041a767be04"),
    (["act", C, "@untw0", "Q^{1}", "x^4"], 0,
     "de52ce72e58234f7d888bc1c20b9f603781c8552decfc9274cdfa687b18bcad4"),
    (["act", C, "@untw0", "bQ^{2}", "x * x + x"], 0,
     "b64a3fa785303d1b897debf3e51971a6cd2f9c5223277c2b0a28db143a62704e"),
    (["act", C, "@zz2", "Q^{0}", "x * z"], 0,
     "90096818ce73e1f1c539d69cd7243fa1c6fd25f289e497e26663aeff0a1f97c0"),
    (["act", C, "@zz2", "Q^{1}", "x * z"], 0,
     "bfacf44d4bd9f06212352044bea879f7fcd6cc4df2a67143b30cc0a52efc9ee1"),
    (["act", C, "@zz2", "bQ^{1}", "x * z"], 0,
     "30738fddb02a49e31e72b88a1188277db1fa0b445c56a2171317bb7c4cbcc57e"),
    (["act", C, "@zz2", "Q^{1/2}", "x + z"], 0,
     "bc1e2926187695d05dafda26bf2a2a6bc6aafbbe76f48b79bc355f1c9e8f60b2"),
    (["act", C, "@zz2", "Q^{1/2}", "x * z * z"], 0,
     "f756fcf1fbc8907b8eda7dd912ea3d375ddde3b8fea11ee94c1d49a4c976bab9"),
    (["act", C, "@sign5", "Q^{2}", "x * bQ^{1/2} x"], 0,
     "1526c154638a11f7742a59b02fed6c2a11172fc40cc7d68c16a8a8d06a555098"),
    (["act", C, "@sign5", "bQ^{3}", "x * Q^{1/2} x"], 0,
     "3667164154ec846012607996c90069cb52800147e52298dc66745fb08c1da200"),
    (["act", C, "@sign5", "Q^{1/2}", "x + 3 * Q^{1/2} x"], 0,
     "e5ce97e658060eb625eea5c3cf7bdbbf63e4c45dc5fbafd961f4caf8934e4010"),
    (["act", C, "@xyz", "Q^{5}", "x * y"], 0,
     "1cdfb1c2f890786f551ad66c9f2807caf72f46135c069b9fb70bb756038b930b"),
    (["act", C, "@xyz", "Q^{8}", "Q^{1} x * y * z"], 0,
     "66bd66eb010ee0420bad5fe831d6c6acb0f3e76fc8d6e183924c8606ce18ae47"),
    # rewrite, table, basis, dmodule, example, selfcheck
    (["rewrite", "Q^{3000} Q^{0}"], 0,
     "a2d570fbffe5f196c6b5554f2fb765bff52b3707d88c8a3326ec862e9686002f"),
    (["rewrite", "Q^{14} Q^{2}", "--p", "5"], 0,
     "d2a598027e6a8de479b3946ec4db1d6ac88d763384814f90b40c6e193f6058ab"),
    (["rewrite", "Q^{11} bQ^{2}", "--p", "5"], 0,
     "6bcf8437c8580da26b3ef149d31d4d0eaef114e523c70b943a1ae017f4a1ae6f"),
    (["rewrite", "Q^{7/2} bQ^{1/2} Q^{1/2}"], 0,
     "f1152e850f80720bdf39ddd83ea29d22bafb546c82b414ba2e243a5c43542a80"),
    (["table", C, "@zz2", "--format", "json"], 0,
     "7e2688c16a6c49085207b5922904bff03edcae19c64c54a8e5c0e3d9c138860a"),
    (["table", C, "@untw3", "--max-degree", "20", "--max-charge", "27"], 0,
     "bb65e030395dd25d8574d5df2b439bc801081bab87eaaed5b5f8557cd11005fe"),
    (["table", C, "@sign3", "--max-degree", "44", "--max-charge", "27", "--format", "json"], 0,
     "f4a94c4e217471fc78c8cea28b5ffe438c89f49dc2b278748f2e2fc7aa89e1a3"),
    (["table", C, "@neg", "--format", "json"], 0,
     "29a73a5e76c7a03ef9481a491f60c364376c8aa3756d24edb6e29b53cb05f642"),
    (["basis", C, "@untw3", "3", "6"], 0,
     "dc69d0e6d0134f8888a7a24adf78bd0f487b4d3d4953b13766715287a4a8f881"),
    (["basis", C, "@zz2", "1,1", "-1"], 0,
     "460dd98def905b8b9ed0787a57e70b14bb798c0bad49294e7308aac6607445ef"),
    (["dmodule", C, "@untw3", "--gen", "x"], 0,
     "b8828d627f7b446f1a6be924031ff5f5354e7a368079096be89707580e748ff0"),
    (["dmodule", C, "@zz2", "--gen", "z"], 0,
     "8acd2cda08bc2dac0b78ca0754996a3857bad5fb693b53e2ac8bface230f9047"),
    (["example", "alternating", "--p", "5", "--format", "tsv"], 0,
     "5b47a317287ec1288ff04e8191ba5f5d021baf57d39f3912c893b8c94bff032b"),
    (["example", "sym-sign", "--max-degree", "16", "--max-charge", "27", "--format", "tsv"], 0,
     "b3ea7080f40baaad0a94b82309266c7fc303bf873bb7a684684ea016565dafae"),
    (["selfcheck"], 0,
     "7523172ea8e12c4b21c8e0fa1e84ac58b5611b218d57a00570a9c0a8fdcb4550"),
    # exit 2
    (["rewrite", "Q^{x} Q^{0}"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["rewrite", "Q^{2} Q^{0}", "--p", "4"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["act", C, "@sign3", "Q^{1/2}", "w"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["act", C, "@sign3", "Q^{1/2} Q^{0}", "x"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["act", C, "@sign3", "Q^{1/2}", "x", "--max-degree", "3"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["frobnicate"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # exit 3
    (["rewrite", "Q^{3000000} Q^{0}", "--budget", "10"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["rewrite", "Q^{10} Q^{0}", "--budget", "3"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["act", C, "@untw0", "--budget", "10", "Q^{0}", "x^1000"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["act", C, "@xyz", "--budget", "50", "Q^{20}", "Q^{3} x * y"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["table", C, "@sign3", "--max-degree", "60", "--max-charge", "81", "--budget", "1000"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["basis", C, "@sign3", "--budget", "3", "4", "1"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["example", "alternating", "--max-degree", "20", "--max-charge", "27", "--budget", "1600"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,code,sha", GOLDEN, ids=[" ".join(r[0]) for r in GOLDEN])
def test_golden_cli(tmp_path, argv, code, sha):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(CONTEXTS[arg[1:]]))
            argv[i] = str(path)
    adem_expand.cache_clear()
    _family_row.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            got = exc.code
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (code, sha)
