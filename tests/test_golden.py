"""Golden bytes: the sha256 of stdout for a fixed set of CLI invocations.

The digests pin byte-identical output across refactors of the algebra.
They were recorded from the code before the operator products, the
exp/ln recurrences and the iterate loops were each reduced to one
definition; a change that alters any rendered byte fails here.  The
``compos --m 6`` and ``prop1 --degree 3`` cases pin the large-operand
path (hundreds of fractional coefficients); they were recorded from the
code before ``MultiPoly`` moved to integer numerators over one shared
denominator.  The ``inversion --order 24`` and ``invert --order 16`` cases
pin ``compose`` and ``newton_inverse`` at sizes where they do real work;
they were recorded from the code before both moved to one power table.
With the ``invert --method all`` cases they also pin the integer kernels
(the partial Bell table behind ``compose`` and ``newton_inverse``, Miller's
recurrence behind ``classical_inverse``), recorded before those moved off
``Fraction`` arithmetic.
The ``compos --m 7`` case (877 summands) was recorded from the code that
still formed one bullet product chain per set partition, before the sum
moved to a subset recursion.  The ``bell 6 --format json`` case and the
text-mode ``invert --method newton`` cases (fractional coefficients, and
with ``NEG_MIXED`` alternating signs, on the ``inverse:`` line) were
recorded from the code before the term renderers of ``MultiPoly``,
``DiffOp``, ``EgfSeries`` and ``BellPoly`` were reduced to one.  The
``bellpower --m 10`` case (high derivative orders) and the ``compos --n 3``
case (three variables) were recorded from the code that still stored an
operator as a map from derivative index to coefficient polynomial, before
it moved to one symbol polynomial in ``2n`` variables.  The
``prop1 --n 3 --degree 3 --seed 5`` case (multi-term coefficients with
fractional, negative and unit numerators at ``d^0`` and higher indices)
was recorded from the code that still rendered each operator through a
reduced coefficient polynomial and a ``Fraction`` per term, before the
renderers moved to reading the integer numerators directly.
"""

import hashlib

import pytest

from opseries.cli import main

XEMX = ",".join(str((-1) ** (m - 1) * m) for m in range(1, 8))  # x e^{-x} to order 7

INVERT = ["invert", "--order", "6", "--coeffs", "0," + XEMX]
OGF = ["invert", "--order", "5", "--coeffs", "0,1,1,0,0,0,0", "--convention", "ogf"]
VERIFY = ["--seed", "7", "--format", "json"]
MIXED = "0,1,-2,0,1/2,2,-1,0,1,1/2,-2,0,2,-1,1,0,1/2,-1"  # zeros, +-1, +-2, 1/2; order 17
NEG_MIXED = "0,-1,2,0,-1/2,-2,1,0,-1,-1/2,2,0,-2,1,-1,0,-1/2,1"  # -f: inverse b_n (-1)^n

GOLDEN = [
    (INVERT + ["--method", "all", "--format", "json"],
     "3a14fa67fda6749045d093f51346f0bf6dadbd19909f3977b99b3c55c9b1591d"),
    (OGF + ["--method", "all", "--format", "json"],
     "2b5b9b82a9c3b8ac294e22320c4dad3eb41f0e4c5f4ccd5999663a905f591645"),
    (["invert", "--order", "16", "--coeffs", MIXED, "--method", "all", "--format", "json"],
     "e6e2f1264f621c543c28d026dbffcc952a86dfc729ff365450896e11ed27b486"),
    (["invert", "--method", "newton", "--order", "16", "--coeffs", MIXED],
     "14bbb65f37094ce29bc58477f977cee64da1873e23448e2e883f37ff8541bdac"),
    (["invert", "--method", "newton", "--order", "16", "--coeffs", NEG_MIXED],
     "a64ba26d11e5aa7fd710d0389c643d6cda9d4c7a64a3a246fd99d12e12c84159"),
    (INVERT + ["--method", "log"],
     "22e759c1ea6678e5d4a99d728e10ff8451077f828ffc48d62be08d3fabbdd7c8"),
    (["verify", "prop1"] + VERIFY,
     "e65b6f8ddc805f5f52a953456384af6d6c615d59ee5bf0f8350b2900e11b1485"),
    (["verify", "corollary"] + VERIFY,
     "0c00d653242f3ed8782c9133ac47d045a8f3632e27a232f876b4cdc3a761af22"),
    (["verify", "compos", "--m", "5"] + VERIFY,
     "9b7f6b588c938f50bd08ff286a0b3fbe5c781c0311308cca30965ecf13f8050f"),
    (["verify", "compos", "--m", "6", "--seed", "1", "--format", "json"],
     "11b312a8c054900fe261a6874422c5b9cbe4fb7a675bb701082eda86c6f11b83"),
    (["verify", "compos", "--m", "7", "--seed", "2", "--format", "json"],
     "d295f3115fcfcee38f3ee574f4e477dfae0b45c9a115fab7bca7d61ef0531bd5"),
    (["verify", "compos", "--m", "5", "--n", "3", "--degree", "2", "--seed", "4",
      "--format", "json"],
     "61f58a0c6e9fb6607dab5f44dc4f44cdfef08922e8ce4d29ea394ff72b90ebf5"),
    (["verify", "prop1", "--trials", "3", "--n", "3", "--degree", "3", "--seed", "7",
      "--format", "json"],
     "9bf36ca2c01ed35c3f83b74a8d4867161816d21053b68ffb3d38359ed58496e4"),
    (["verify", "prop1", "--n", "3", "--degree", "3", "--seed", "5", "--format", "json"],
     "4c97302b2f99dd937cbeed3ad6a49989b7d4cdb72549e62ed54413d93bb95a9c"),
    (["verify", "bellpower"] + VERIFY,
     "a5a2feee9d449d7f94c84ef968bd364091abf7e88c2ecc202ee7d98200d80e00"),
    (["verify", "bellpower", "--m", "10", "--seed", "3", "--format", "json"],
     "3a7143d8ff3afdec32b1e4a2fab3b47e60f1ff9374d3c8b02c10704c53724f2a"),
    (["verify", "expid"] + VERIFY,
     "e61884de7c73e8476679ca5686cec01017b1de4d0696496def8379343233e6a0"),
    (["verify", "stirling"] + VERIFY,
     "1495861761a5cf5893e13eb8bab01cb19d3c54d0272ac71e046ab559c8aaccea"),
    (["verify", "inversion"] + VERIFY,
     "176afae3d28ac53426fd52b99163025c9cd01349f060263d1cb95760f3ef15c5"),
    (["verify", "inversion", "--order", "24", "--seed", "3", "--format", "json"],
     "686b9a9744c1b2f5c2a043d16d8f6a4ea535494bb5387e916988f7c348835686"),
    (["partitions", "4"],
     "8831d6b0e99c155bb844f6e8b923b67329040023c4c66b34efa737987e70de6a"),
    (["bell", "4"],
     "055e329d962b769b8de8ad5280f77b8f6989d7d6061958d9b4d54b939bce147a"),
    (["bell", "6", "--format", "json"],
     "f8a01c98f1d612bde0ee1e57b874eb8c65cfc41c39486395401dd45bb8600e8a"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_bytes_match_recorded_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
