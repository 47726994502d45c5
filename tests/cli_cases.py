"""Every command-line check: argv, optional stdin, exit code, and the exact stdout and stderr.

`tests/test_cli.py` runs each case in process through `freebraid.cli.main`.  Run as a script,
this file runs each case through a console command and prints the cases whose output differs:

    python tests/cli_cases.py                                          # the installed `freebraid`
    PYTHONPATH=src python tests/cli_cases.py python -m freebraid.cli   # a checkout

A new check is one more `Case`.
"""

import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class Case(NamedTuple):
    id: str
    argv: list[str]
    code: int = 0
    out: str = ""
    err: str = ""
    stdin: str | None = None
    timeout: float | None = None  # seconds; read only when run as a script


ZEROS = "0" * 4400  # int() converts at most 4300 digits
NINES = "9" * 4300
BRUNNIAN = ("n=9; t1 t2 t3 z4 t4 t3 t2 z1 t1 t2 t3 t4 t5 z6 t6 t5 t4 z3"
            " t3 t4 t5 t6 t7 t8 z8 t7 t6 z5 t4 t3 t2 z2 t3 t4 t5 t6 z7 t8")
BETA_PRIME = (Path(__file__).parent / "golden" / "scenario_beta_prime.txt").read_text()
# Piped checks: the scrambled word is stored, and the next command reads it.
WIDE = "n=10000; z1 z9999 t5000 z5001 t2 z3"
WIDE_F = (
    "n=10000; t5576 t5576 z1 z9003 z4054 z9003 z4661 t7813 z4661 t7813 z9091 z4054 t69 z9091 t4481 t69 t3650 "
    "z6989 t3650 t6358 t4300 z6989 t6358 t4300 t4481 t3795 t3795 t836 z1513 t5000 t836 z1765 z1765 t8852 z1513 "
    "t6250 t6250 t6833 z9999 t2330 t2330 t6510 t6833 t8180 t6510 t8852 t1405 z8669 t8180 z3802 z8527 z7006 z7006 "
    "z8744 z28 t5252 t5252 t1405 z8669 t8685 t3829 t8685 z8744 z2705 z3802 t9373 z140 t47 z28 t9373 t6195 t2982 "
    "t6195 z5067 z2705 z5067 t47 t2982 t3829 t7029 z140 t5677 z3660 z2949 t7029 t5677 z1022 t3406 t3406 z1022 "
    "z2695 t3534 t4065 t3534 z5001 z3660 t5131 t5131 z9154 z2695 z2949 t4065 t3412 t3097 z8527 z9154 t3412 t7121 "
    "t7121 z1171 t3097 t7765 t5194 t7765 z5832 t1567 t3829 z1171 t2 t1567 t3829 z43 z5832 z7728 t5194 t4802 t4802"
    " t5671 z43 z7728 t9711 z5034 z4604 t9711 z3192 z3192 t2151 z9977 z9977 z4604 t9787 t2151 z5034 t9787 t5671 "
    "t6072 z870 z3881 t5439 t5439 t6909 z870 t7505 t6909 z971 z3881 t8759 t7505 z971 t8759 t6072 z9403 z8951 "
    "t7369 t7369 z1091 z9403 z2849 z7680 z1409 z1091 z1409 z7138 z7680 z5595 z4334 z2849 t8213 t4574 z7138 t5539 "
    "t9754 z2460 t9754 z4334 z2460 z1950 t5539 z1950 t4574 t4255 z4111 z9316 z4111 t4255 t8213 z5595 z52 z6337 "
    "z8951 z6337 t423 t9711 z7869 z9316 z7869 t9296 z1841 t894 z52 z96 t9711 t2157 z96 t894 z1841 t8545 t2157 "
    "t829 t423 z1823 t4687 t829 z3540 z3540 z7419 z1823 z9292 t9296 z7419 t917 z9564 z9292 z9564 t8545 t4687 "
    "t9566 z6074 t2667 t917 z8133 z7383 t2667 z7383 t4343 z2724 z8133 z6074 t4343 z3907 t2486 t3619 z2724 t2438 "
    "t2486 t6678 t4767 z7868 t2438 z832 t4767 t3619 z832 z3907 z1423 z1814 z1423 t6678 t1296 t9271 t1296 z7868 "
    "t137 t103 t137 t8575 z3389 z1814 t9271 t4856 t8615 t8365 t1703 t8365 t8615 t103 t1703 t9566 t8575 t4856 "
    "t1542 z3389 z283 z4559 t4549 z1197 z283 t1542 t4549 z1197 z1896 z3374 t786 z4559 t9127 z1896 t9127 t3836 "
    "t5044 z9869 t2399 z5563 z6378 t786 t2399 z9869 t2649 t5044 t2649 t3173 z458 t9175 t3173 z6378 z4737 z9020 "
    "t1388 t3836 z5563 z4737 z458 z5791 t4339 z6636 t9175 z6636 z460 t1388 t4339 z9020 z5791 z460 z3374 t2013 "
    "t4511 t9075 t9075 t9068 z6890 t4511 t8571 t9068 t5855 t1772 t984 t8571 t1772 t5855 z6890 z9802 t984 t4609 "
    "t4609 t2013 t6987 t3923 z9802 z6089 z6089 t6987 t3923 t7575 t6817 z3 t6817 t5562 t1932 z790 t7575 t5562 z759"
    " z8238 t1932 z790 t876 z759 z8238 t6923 z3923 z5306 t6923 t5922 t6162 t876 t5922 t6162 z5306 z3923 t5444 "
    "t5444"
)
STRONG = "n=3; z1 z2 z1 t2 z1 z2"
STRONG_SCRAMBLED = ("n=3; t1 t2 t2 t2 t1 t1 t2 t2 t1 t2 t1 t2 t1 t1 t1 z1 t1 t1 t1 z2 t2 t2 z1 t2 t2 t2 t1 t2 t2 t2"
                    " t2 z1 t1 t1 t2 t2 t1 z2 t1 t1")
STRONG_CODE = "n=3; perm=1,2,3; m=5\ns1: 1,2,3\ns2: 1,4,5\ns3: 2,4,3,5\n"
TOO_LONG = "freebraid: strand count must be at most 10000, got a number too long to convert\n"
NESTED = "freebraid: invalid JSON word: arrays or objects nested too deeply\n"
DIGITS = "freebraid: invalid JSON word: a number has too many digits\n"
OUT_OF_RANGE = "freebraid: letter index of 4401 digits out of range\n"
STRAND_COUNTS = "freebraid: strand counts differ: 2 vs 3\n"
ADDED = "freebraid: --added expects two comma-separated positions, got "

CASES = [
    # words and their limits
    Case("perm", ["perm", "n=2; z1"], out="1->2 2->1\n"),
    Case("perm-stdin", ["perm", "-"], out="1->3 2->1 3->2\n", stdin="n=3; z1 t2"),
    Case("perm-missing-file", ["perm", "@/no/such/file"], 1, err="freebraid: cannot read word file '/no/such/file': "
         "[Errno 2] No such file or directory: '/no/such/file'\n"),
    Case("parse-index-out-of-range", ["parse", "n=3; z9"], 1, err="freebraid: letter index 9 out of range for n=3\n"),
    Case("parse-json-letters-not-array", ["parse", '{"n": 3, "letters": 5}'], 1,
         err="freebraid: JSON field 'letters' must be an array\n"),
    Case("parse-json-index-out-of-range", ["parse", '{"n": 3, "letters": [{"kind": "classical", "i": 3}]}'], 1,
         err="freebraid: letter index 3 out of range for n=3\n"),
    Case("parse-header-above-cap", ["parse", "n=99999999999;"], 1,
         err="freebraid: strand count must be at most 10000, got 99999999999\n"),
    Case("perm-index-above-cap", ["perm", "z9999999999"], 1,
         err="freebraid: strand count must be at most 10000, got 10000000000\n"),
    Case("parse-json-n-above-cap", ["parse", '{"n": 99999999999}'], 1,
         err="freebraid: strand count must be at most 10000, got 99999999999\n"),
    Case("parse-stdin-above-letter-cap", ["parse", "-"], 1, err="freebraid: letter count must be at most 1000000\n",
         stdin="z1 " * 1_000_001),
    Case("parse-json-arrays-above-letter-cap", ["parse", "-"], 1, err="freebraid: letter count must be at most 1000000\n",
         stdin='{"n": 2, "letters": [' + "[], " * 1_000_000 + "[]]}"),
    # passes the bracket and comma pre-count (one array, 10^6 commas), so the array's length refuses it
    Case("parse-json-integers-above-letter-cap", ["parse", "-"], 1, err="freebraid: letter count must be at most 1000000\n",
         stdin='{"n": 2, "letters": [' + "0, " * 1_000_000 + "0]}"),
    Case("parse-zeros-index", ["parse", "z" + ZEROS + "1"], out="n=2; z1\n"),
    Case("parse-zeros-header", ["parse", "n=" + ZEROS + "3; t" + ZEROS + "2"], out="n=3; t2\n"),
    Case("parity-zeros-component", ["parity", "--parity", "component:N1=" + ZEROS + "1", "n=2; z1"],
         out="pos=0 letter=z1 parity=odd\n"),
    Case("parity-zeros-qgaussian", ["parity", "--parity", "qgaussian:Q=" + ZEROS + "1," + ZEROS + "2", "n=2; z1"],
         out="pos=0 letter=z1 parity=even\n"),
    Case("scramble-zeros-options", ["scramble", "--steps", ZEROS + "5", "--seed", ZEROS + "7", "n=3; z1 z2"],
         out="n=3; t1 t1 z1 z2 t1 t2 t2 t1\n"),
    Case("parse-long-header", ["parse", "n=1" + ZEROS + ";"], 1, err=TOO_LONG),
    Case("parse-long-index", ["parse", "z1" + ZEROS], 1, err=OUT_OF_RANGE),
    Case("parse-long-index-after-header", ["parse", "n=3; z2 t1" + ZEROS], 1, err=OUT_OF_RANGE),
    Case("parse-unknown-token-first", ["parse", "z1 q1 z1" + ZEROS], 1, err="freebraid: unknown token 'q1'\n"),
    Case("parse-json-long-n", ["parse", '{"n": 1' + ZEROS + "}"], 1, err=DIGITS),
    Case("parse-json-long-index", ["parse", '{"n": 3, "letters": [{"kind": "virtual", "i": 1' + ZEROS + "}]}"], 1,
         err=DIGITS),
    Case("parity-long-component", ["parity", "--parity", "component:N1=1" + ZEROS, "n=2; z1"], 2,
         err=f"freebraid: bad partition list in 'component:N1=1{ZEROS}'\n"),
    Case("parity-long-qgaussian", ["parity", "--parity", "qgaussian:Q=2,1" + ZEROS, "n=2; z1"], 2,
         err=f"freebraid: bad permutation image in 'qgaussian:Q=2,1{ZEROS}'\n"),
    Case("parse-nines-index", ["parse", "z" + NINES], 1, err=TOO_LONG),
    Case("perm-nines-index", ["perm", "t" + NINES], 1, err=TOO_LONG),
    Case("parse-json-nested-n", ["parse", '{"n": ' + "[" * 100_000], 1, err=NESTED),
    Case("parse-json-nested-letters", ["parse", "-"], 1, err=NESTED,  # too long for one argument
         stdin='{"n": 2, "letters": ' + '[{"i": ' * 50_000 + "1" + "}]" * 50_000 + "}"),
    Case("perm-arabic-index", ["perm", "z\u0661"], 1, err="freebraid: unknown token 'z\u0661'\n"),
    Case("parse-arabic-header", ["parse", "n=\u0663; z1 t2"], 1, err="freebraid: unknown token 'n=\u0663;'\n"),
    # closure, chords, parities and the bracket
    Case("closure-empty-word", ["closure", "n=3;"], out="components: 3\ncycle: 1\ncycle: 2\ncycle: 3\n"),
    Case("chords-virtual-between", ["chords", "n=2; z1 t1 z1"],
         out="crossings: 2\ngauss: 0 2 0 2\nchord 0: endpoints 0,2\nchord 2: endpoints 1,3\n"),
    Case("chords", ["chords", "n=3; z1 z2 z1 z1"], out="crossings: 4\ngauss: 0 1 1 2 3 0 2 3\nchord 0: endpoints 0,5\n"
         "chord 1: endpoints 1,2\nchord 2: endpoints 3,6\nchord 3: endpoints 4,7\n"),
    Case("parity-component", ["parity", "--parity", "component:N1=1", "n=3; z1 z2 z1 z1"],
         out="pos=0 letter=z1 parity=odd\npos=1 letter=z2 parity=odd\npos=2 letter=z1 parity=even\n"
         "pos=3 letter=z1 parity=even\n"),
    Case("parity-component-pair", ["parity", "--parity", "component:N1=1,2", "n=4; z2"],
         out="pos=0 letter=z2 parity=odd\n"),
    Case("parity-qgaussian", ["parity", "--parity", "qgaussian:Q=2,1", "n=2; z1 z1"],
         out="pos=0 letter=z1 parity=odd\npos=1 letter=z1 parity=odd\n"),
    Case("parity-gaussian-not-cyclic", ["parity", "--parity", "gaussian", "n=3; z1 z1"], 2,
         err="freebraid: closure has 3 components; Gaussian parity requires a cyclic permutation\n"),
    Case("parity-component-out-of-range", ["parity", "--parity", "component:N1=9", "n=4; z2"], 2,
         err="freebraid: bad partition in 'component:N1=9': part [9] is not a subset of 1..4\n"),
    Case("parity-qgaussian-not-bijective", ["parity", "--parity", "qgaussian:Q=1,1", "n=2; z1"], 2,
         err="freebraid: bad completion in 'qgaussian:Q=1,1': (1, 1) is not a bijection of 1..2\n"),
    Case("parity-arabic-component", ["parity", "--parity", "component:N1=\u0661", "n=2; z1"], 2,
         err="freebraid: bad partition list in 'component:N1=\u0661'\n"),
    Case("parity-arabic-qgaussian", ["parity", "--parity", "qgaussian:Q=\u0662,1", "n=2; z1"], 2,
         err="freebraid: bad permutation image in 'qgaussian:Q=\u0662,1'\n"),
    Case("parity-component-empty-first", ["parity", "--parity", "component:N1=", "n=3; z1 z2"],
         out="pos=0 letter=z1 parity=even\npos=1 letter=z2 parity=even\n"),
    Case("parity-component-repeated", ["parity", "--parity", "component:N1=1,1", "n=3; z1 z2"], 2,
         err="freebraid: bad partition in 'component:N1=1,1': strand 1 given twice\n"),
    Case("parity-component-empty-item", ["parity", "--parity", "component:N1=1,,2", "n=3; z1 z2"], 2,
         err="freebraid: bad partition list in 'component:N1=1,,2'\n"),
    Case("parity-component-comma", ["parity", "--parity", "component:N1=,", "n=3; z1 z2"], 2,
         err="freebraid: bad partition list in 'component:N1=,'\n"),
    Case("parity-qgaussian-empty-items", ["parity", "--parity", "qgaussian:Q=,,2,,1", "n=2; z1"], 2,
         err="freebraid: bad permutation image in 'qgaussian:Q=,,2,,1'\n"),
    Case("parity-padded-component", ["parity", "--parity", " component:N1=1 ", "n=3; z1 z2"], 2,
         err="freebraid: unknown parity scheme ' component:N1=1 '\n"),
    Case("parity-gaussian-newline", ["parity", "--parity", "gaussian\n", "n=2; z1 t1 z1"], 2,
         err="freebraid: unknown parity scheme 'gaussian\\n'\n"),
    Case("parity-component-trailing-space", ["parity", "--parity", "component:N1=1 ", "n=3; z1 z2"], 2,
         err="freebraid: bad partition list in 'component:N1=1 '\n"),
    # normal forms and deciders
    Case("reduce", ["reduce", "n=2; z1 t1 z1"], out="n=2; t1\n"),
    Case("canon", ["canon", "n=3; z1 z2 z1"], out="n=3; perm=3,2,1; m=3\ns1: 1,2\ns2: 1,3\ns3: 2,3\n"),
    Case("canon-strong", ["canon", STRONG], out=STRONG_CODE),
    Case("canon-strong-scrambled", ["canon", STRONG_SCRAMBLED], out=STRONG_CODE),
    Case("eq-f-pair-cancels", ["eq-f", "n=2; z1 z1", "n=2;"], out="equal\n"),
    Case("eq-strong-pair-stays", ["eq-strong", "n=2; z1 z1", "n=2;"], out="not equal\n"),
    Case("eq-f-strand-counts", ["eq-f", "n=2; z1", "n=3; z1"], 2, err=STRAND_COUNTS),
    Case("eq-f-virtual-pair", ["eq-f", "n=3; z2 z1 t2 t2 z1", "n=3; z2"], out="equal\n"),
    Case("eq-f-triple-slide", ["eq-f", "n=3; z1 z2 z1", "n=3; z2 z1 z2"], out="not equal\n"),
    Case("eq-f-wide-scrambled", ["eq-f", WIDE, WIDE_F], out="equal\n"),
    Case("distinguish-certified", ["distinguish", "--parity", "component:N1=1", "n=3; z1", "n=3; t1"],
         out="bracket 1:\nn=3; perm=2,1,3; m=1\ns1: 1\ns2: 1\ns3:\nbracket 2:\nn=3; perm=2,1,3; m=0\ns1:\ns2:\n"
         "s3:\nnot equivalent (certified by parity bracket)\n"),
    Case("distinguish-inconclusive", ["distinguish", "--parity", "component:N1=1", "n=3; z1", "n=3; z1"],
         out="bracket 1:\nn=3; perm=2,1,3; m=1\ns1: 1\ns2: 1\ns3:\nbracket 2:\nn=3; perm=2,1,3; m=1\ns1: 1\ns2: 1\n"
         "s3:\ninconclusive\n"),
    # strand counts are compared before either bracket, so no scheme's own error comes first
    *(Case(f"{command}-strand-counts-{scheme.partition(':')[0]}", [command, "--parity", scheme, "n=2; z1", word], 2,
           err=STRAND_COUNTS) for command, scheme, word in (
        ("distinguish", "gaussian", "n=3; z1 z2"), ("distinguish", "component:N1=1", "n=3; z1"),
        ("distinguish", "qgaussian:Q=1,2", "n=3; z1"), ("verify", "gaussian", "n=3; z1"))),
    # the reproduction check: reproduced, refuted by the bracket, refuted by the permutation
    Case("verify-reproduced", ["verify", "--parity", "gaussian", BRUNNIAN, BRUNNIAN + " z1 z1"],
         out="reproduced: witness positions " + " ".join(map(str, range(38))) + "\n"),
    Case("verify-reproduced-json", ["verify", "--json", "--parity", "gaussian", BRUNNIAN, BRUNNIAN + " z1 z1"],
         out='{"success": true, "witness_positions": [' + ", ".join(map(str, range(38))) + '], '
         '"reduced_code": "n=9; perm=9,1,2,3,4,5,6,7,8; m=8\\ns1: 1,2,3,4,5,6,7,8\\ns2: 2\\ns3: 7\\ns4: 4\\ns5: 1\\n'
         's6: 6\\ns7: 3\\ns8: 8\\ns9: 5", "reason": ""}\n'),
    Case("verify-brackets-differ", ["verify", "--parity", "gaussian", BRUNNIAN, BRUNNIAN.replace("z4", "t4", 1)],
         out="not reproduced: brackets differ; the words are certified non-equivalent\n"),
    Case("verify-brackets-differ-json", ["verify", "--json", "--parity", "gaussian", BRUNNIAN,
                                         BRUNNIAN.replace("z4", "t4", 1)],
         out='{"success": false, "witness_positions": null, "reduced_code": "n=9; perm=1,3,9,2,4,5,6,7,8; m=4\\ns1:\\n'
         's2: 1\\ns3: 2\\ns4: 3,4\\ns5:\\ns6: 4\\ns7: 1\\ns8: 2\\ns9: 3", '
         '"reason": "brackets differ; the words are certified non-equivalent"}\n'),
    Case("verify-permutations-differ", ["verify", "--parity", "gaussian", BRUNNIAN, BRUNNIAN + " z1 z1 z1"],
         out="not reproduced: permutations differ; the words are not equivalent under any move set\n"),
    Case("verify-permutations-differ-json", ["verify", "--json", "--parity", "gaussian", BRUNNIAN,
                                             BRUNNIAN + " z1 z1 z1"],
         out='{"success": false, "witness_positions": null, "reduced_code": null, '
         '"reason": "permutations differ; the words are not equivalent under any move set"}\n'),
    # moves and the oracle
    Case("scramble", ["scramble", "--steps", "50", "--seed", "9", "--max-length", "30", "n=3; z1 z2"],
         out="n=3; z2 t2 z2 t2 t2 t2 t1 t1 z1 z1 z2 z1 z2 z1 z2 z1 z1 t1 z1 z1 z1 z1 z2 z2 t1 z1 z1 z1 z1 z2\n"),
    Case("scramble-history", ["scramble", "--steps", "5", "--seed", "1", "--max-length", "20", "--history", "n=3; z1 z2"],
         out="n=3; z1 z2 z2 z2 z2 t2 t2 z2\nVirtualR2 i=1 pos=2 dir=rev\nClassicalR2 i=2 pos=2 dir=rev\n"
         "ClassicalR2 i=2 pos=3 dir=rev\nVirtualR2 i=1 pos=6 dir=fwd\nVirtualR2 i=2 pos=5 dir=rev\n"),
    Case("scramble-wide-f", ["scramble", "--moveset", "F", "--steps", "3000", "--seed", "5", "--max-length", "400", WIDE],
         out=WIDE_F + "\n"),
    Case("scramble-strong", ["scramble", "--moveset", "strong", "--steps", "500", "--seed", "2", "--max-length", "40",
                             STRONG], out=STRONG_SCRAMBLED + "\n"),
    Case("scramble-negative-steps", ["scramble", "--steps", "-1", "n=3; z1 z2"], 2, err="freebraid: steps must be >= 0\n"),
    Case("scramble-max-length-below-word", ["scramble", "--max-length", "1", "n=3; z1 z2"], 2,
         err="freebraid: max_length must be at least the current word length\n"),
    Case("scramble-max-length-above-cap", ["scramble", "--max-length", "1000001", "n=2; z1"], 2,
         err="freebraid: max_length must be at most 1000000, got 1000001\n"),
    Case("scramble-negative-seed", ["scramble", "--seed", "-7", "n=2; z1"], 2, err="freebraid: seed must be >= 0\n"),
    Case("oracle-fb-equal", ["oracle", "--moveset", "FB", "--bound", "5", "n=3; z1 z2 z1", "n=3; z2 z1 z2"],
         out="Equal\n"),
    Case("oracle-f-not-found", ["oracle", "--moveset", "F", "--bound", "7", "n=3; z1 z2 z1", "n=3; z2 z1 z2"],
         out="NotFoundWithinBound\n"),
    Case("oracle-cap-exceeded", ["oracle", "--moveset", "F", "--bound", "9", "--node-cap", "10", "n=3;", "n=3; z1 z2"],
         out="CapExceeded\n"),
    Case("oracle-cap-bounds-wide-search", ["oracle", "--node-cap", "10", "n=3000; z1", "n=3000; z2"],
         out="CapExceeded\n", timeout=10),
    Case("oracle-node-cap-0", ["oracle", "--node-cap", "0", "n=2; z1 z1", "n=2; z1 z1"], 2,
         err="freebraid: node_cap must be >= 1\n"),
    Case("oracle-node-cap-negative", ["oracle", "--node-cap", "-3", "n=2; z1 z1", "n=2; z1 z1"], 2,
         err="freebraid: node_cap must be >= 1\n"),
    # integer options read ASCII digits as words do: no other script, underscores, `+` or spaces
    *(Case(f"{command[-1]}{option}-{kind}", [*command, option, text, *words], 1,
           err=f"freebraid {' '.join(command)}: error: argument {option}: invalid int value: {text!r}\n")
      for command, option, words in ((["scramble"], "--steps", ["n=2; z1"]), (["scramble"], "--seed", ["n=2; z1"]),
                                     (["scramble"], "--max-length", ["n=2; z1"]),
                                     (["oracle"], "--bound", ["n=2; z1", "n=2; z1"]),
                                     (["oracle"], "--node-cap", ["n=2; z1", "n=2; z1"]),
                                     (["scenario", "brunnian"], "--steps", []))
      for kind, text in (("arabic", "\u0663"), ("underscore", "1_0"), ("plus", "+3"), ("space", " 3"))),
    # rendering and the scenarios
    Case("render", ["render", "n=3; z1 t2"], out="1   2   3\n\\ * /   |\n|   \\ o /\n2   3   1\n"),
    Case("render-svg", ["render", "--format", "svg", "n=2; z1"],
         out='<svg xmlns="http://www.w3.org/2000/svg" width="80" height="80" viewBox="0 0 80 80">\n'
         '<g stroke="black" stroke-width="2" fill="none">\n<line x1="20" y1="20" x2="60" y2="60"/>\n'
         '<line x1="60" y1="20" x2="20" y2="60"/>\n</g>\n<circle cx="40" cy="40" r="6" fill="black" stroke="black"/>\n'
         '</svg>\n'),
    Case("render-no-json", ["render", "--json", "n=2; z1"], 1, err="freebraid: error: unrecognized arguments: --json\n"),
    Case("render-over-the-strand-row-bound", ["render", "n=10000;" + " z1" * 101], 2,
         err="freebraid: 10000 strands by 101 rows is over 1000000 strand-rows\n"),
    Case("scenario-brunnian", ["scenario", "brunnian", "--steps", "300"],
         out=f"word: {BRUNNIAN}\npermutation cyclic: yes\nodd crossings: 8/8\nbigons: 0\nbracket equals input: yes\n"
         "reproduction after scramble: yes (seed=0, steps=300, max-length=200)\nresult: PASS\n"),
    Case("scenario-brunnian-steps-above-cap", ["scenario", "brunnian", "--steps", "2000000"], 2,
         err="freebraid: steps must be at most 1000000, got 2000000\n"),
    Case("scenario-brunnian-json", ["scenario", "brunnian", "--json", "--steps", "300"],
         out=f'{{"word": "{BRUNNIAN}", "cyclic": true, "classical_count": 8, "odd_count": 8, "bigon_count": 0, '
         '"bracket_equals_input": true, "reproduction_ok": true, '
         '"scramble": {"seed": 0, "steps": 300, "max_length": 200}, "passed": true}\n'),
    Case("scenario-beta-prime", ["scenario", "beta-prime"], out=BETA_PRIME),
    Case("scenario-beta-prime-json", ["scenario", "beta-prime", "--json"],
         out='{"word": "n=10; t2 t3 t4 z5 t5 t4 t3 z2 t2 t3 t4 t5 t6 z7 t7 t6 t5 z4 t4 t5 t6 t7 t8 t9 z9 t8 t7 z6 t5 '
         't4 t3 z3 t4 t5 t6 t7 z8 t9 z1 t2 t3 t2 z1", "added_positions": [38, 42], "added_parities": ["even", "even"], '
         '"bracket_components": 3, "bracket_cycles": [[1], [2, 10, 9, 8, 7, 6, 5], [3, 4]], '
         '"trivial_components": [[1]], "findings_met": true, "note": "built-in word is one reading of a braid usually '
         'given as a diagram; supply a candidate word to test alternatives"}\n'),
    Case("beta-prime-nine-strands", ["scenario", "beta-prime", BRUNNIAN], 2,
         err="freebraid: the transformed braid has 10 strands, got 9\n"),
    Case("beta-prime-no-embedded-word", ["scenario", "beta-prime", "n=10; z1 z2 z3 z4 z5 z6 z7 z8 z9"], 2,
         err="freebraid: cannot locate the embedded brunnian word; pass the added crossing positions explicitly\n"),
    Case("beta-prime-arabic-added", ["scenario", "beta-prime", "--added", "\u0661,2"], 1, err=ADDED + "'\u0661,2'\n"),
    Case("beta-prime-same-added-twice", ["scenario", "beta-prime", "--added", "38,38"], 2,
         err="freebraid: the two added crossings need two different positions, got 38 twice\n"),
    Case("beta-prime-underscore-added", ["scenario", "beta-prime", "--added", "3_8,42"], 1, err=ADDED + "'3_8,42'\n"),
]
assert len({case.id for case in CASES}) == len(CASES), "case ids must be unique"


def main(command: list[str]) -> int:
    """Run every case through `command`; print each mismatch and a count, and return 1 if any."""
    failed = 0
    for case in CASES:
        timeout = case.timeout or 60
        try:
            proc = subprocess.run([*command, *case.argv], input=case.stdin or "", capture_output=True,
                                  encoding="utf-8", timeout=timeout)
            got = (proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            got = f"no exit within {timeout} s"
        if got != (case.code, case.out, case.err):
            failed += 1
            print(f"FAIL {case.id}: expected {(case.code, case.out, case.err)!r:.300}, got {got!r:.300}")
    print(f"{len(CASES) - failed}/{len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["freebraid"]))
