"""Check that the tests kill each listed mutant of the source.

A mutant is one string replacement in one file under ``src/``.  For each
mutant this copies the repository (without ``.git``) into a temporary
directory, applies the replacement, runs ``pytest -x`` there and
reports the mutant killed (the tests failed) or survived (they passed).
The unmutated copy is run first and must pass, so that a kill means the
mutant was seen.  Uses the standard library only; pytest must be importable.

    python3 tools/mutants.py

Known output-equivalent mutants are listed apart, in ``EQUIVALENT``: no
output-level test can kill them, so they are not run.  Each one's text
must still occur exactly once in its file, and the runner prints it.

Exit status: 0 if every mutant is killed, 1 if any survives, 2 if the
unmutated tests fail, the copy's ``opseries`` is not the one imported, or
a mutant's text (an equivalent one's too) no longer occurs exactly once in
its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = (
    Mutant(
        "MultiPoly.__eq__ ignores the denominator (x == x/2)",
        "src/opseries/multipoly.py",
        "return self._n == other._n and self._den == other._den and self._nums == other._nums",
        "return self._n == other._n and self._nums == other._nums",
    ),
    Mutant(
        "DiffOp.__eq__ compares derivative indices only (d1 == 2*d1)",
        "src/opseries/diffop.py",
        "return self._n == other._n and self._sym == other._sym",
        "return self._n == other._n and [b for b, _ in self.items()] == "
        "[b for b, _ in other.items()]",
    ),
    Mutant(
        "MultiPoly products without the guard-bit check on product exponents",
        "src/opseries/multipoly.py",
        "if any(map(_guard(n).__and__, nums)):",
        "if False:",
    ),
    Mutant(
        "circ keeps every g <= a (xi >= g) instead of g == a (xi == g)",
        "src/opseries/diffop.py",
        "return self._product(other, lambda alpha: (alpha,))",
        "return self._product(other, lambda alpha: sub_indices(alpha))",
    ),
    Mutant(
        "diamond without its (a choose g) weight: the merged column drops it for g != a",
        "src/opseries/diffop.py",
        "w = index_binomial(alpha, gamma)",
        "w = 1",
    ),
    Mutant(
        "the kept column of d_x^g is not lowered by xi^g",
        "src/opseries/diffop.py",
        "{key - xi: c * k for key, c in right._nums.items()}",
        "{key: c * k for key, c in right._nums.items()}",
    ),
    Mutant(
        "the merged column accumulates into its first kept column instead of a fresh map",
        "src/opseries/diffop.py",
        "col = {}",
        "col = cols[0][1] if cols else {}",
    ),
    Mutant(
        "every product forms its right operand's columns again, none kept",
        "src/opseries/diffop.py",
        "if gamma not in columns:",
        "if True:",
    ),
    Mutant(
        "a product keeps the groups it split of its left operand",
        "src/opseries/diffop.py",
        "(self._split_terms() if split is None else split).items()",
        "self._groups().items()",
    ),
    Mutant(
        "a block nests its circs from the wrong side, block(i_1 .. i_(s-1)) o L_(i_s)",
        "src/opseries/diffop.py",
        "last.circ(_block(ops, picked[:-1], memo))",
        "_block(ops, picked[:-1], memo).circ(last)",
    ),
    Mutant(
        "the Bell generators nest to the left, G_(i-1) o op instead of op o G_(i-1)",
        "src/opseries/diffop.py",
        "accumulate(repeat(op), lambda g, x: x.circ(g))",
        "accumulate(repeat(op), lambda g, x: g.circ(x))",
    ),
    Mutant(
        "derivative multi-indices without the 2**31 bound MultiPoly.partial's borrow test "
        "relies on",
        "src/opseries/multipoly.py",
        "if max(alpha) >= _BOUND:",
        'if max(alpha) >= _BOUND and what != "derivative multi-index":',
    ),
    Mutant(
        "DiffOp.__init__ without the xi^beta shift: every coefficient lands at d^0",
        "src/opseries/diffop.py",
        "nums = {a + xi: c * (den // u._den)",
        "nums = {a: c * (den // u._den)",
    ),
    Mutant(
        "the term format without its gcd: a numerator over a shared denominator prints 2/4",
        "src/opseries/multipoly.py",
        "g = math.gcd(num, den)",
        "g = 1",
    ),
    Mutant(
        "the streamed sum without the in-place rescale of its running map",
        "src/opseries/multipoly.py",
        "nums[key] = c * s",
        "nums[key] = c",
    ),
    Mutant(
        "the streamed sum merges into its first addend's map instead of a copy",
        "src/opseries/multipoly.py",
        "nums = dict(p._nums)",
        "nums = p._nums",
    ),
    Mutant(
        "the streamed sum accumulates a factor pair without the factor k of its denominator",
        "src/opseries/multipoly.py",
        "p._nums if k == 1 else _scaled(p._nums, k)",
        "p._nums",
    ),
    Mutant(
        "the streamed sum of factor pairs skips the guard-bit check on its product keys",
        "src/opseries/multipoly.py",
        "if paired:",
        "if False:",
    ),
    Mutant(
        "the integer contract reads a bool as an int (True as 1)",
        "src/opseries/multipoly.py",
        "if isinstance(value, bool) or not isinstance(value, int):",
        "if not isinstance(value, int):",
    ),
    Mutant(
        "the integer contract without its upper bound",
        "src/opseries/multipoly.py",
        "if not least <= value <= most:",
        "if not least <= value:",
    ),
    Mutant(
        "SetPartition equality ignores blocks",
        "src/opseries/combinat.py",
        "return self.m == other.m and self.blocks == other.blocks",
        "return self.m == other.m",
    ),
    Mutant(
        "IntPartition equality ignores multiplicities",
        "src/opseries/combinat.py",
        "return self.m == other.m and self.multiplicities == other.multiplicities",
        "return self.m == other.m",
    ),
    # each checker below passes when its right side is replaced by its left one,
    # unless a test breaks one ingredient of that side and expects a failure
    Mutant(
        "prop1.associator_symmetry compares the associator with itself",
        "src/opseries/verify.py",
        "lambda: _associator(u, v, c), lambda: _associator(v, u, c)),",
        "lambda: _associator(u, v, c), lambda: _associator(u, v, c)),",
    ),
    Mutant(
        "corollary.product_split takes X <> Y as its right side",
        "src/opseries/verify.py",
        "lambda: u.diamond(b), lambda: u.circ(b) + u.bullet(b)),",
        "lambda: u.diamond(b), lambda: u.diamond(b)),",
    ),
    Mutant(
        "bellpower takes the composition power as its Bell side",
        "src/opseries/verify.py",
        "rhs = bell_eval_bullet(m, op)",
        "rhs = power_diamond(op, m)",
    ),
    Mutant(
        "expid takes the composition powers as its exp side",
        "src/opseries/verify.py",
        "exp_side = _exp_recurrence(inner, DiffOp.bullet, unit_op(op.n))",
        "exp_side = powers",
    ),
    Mutant(
        "expid.xd takes its left side as its right side",
        "src/opseries/verify.py",
        'right = [(f"z^{m}", _xd_normal_form(weights[m])) for m in z]',
        "right = left",
    ),
    Mutant(
        "stirling takes its left side as its right side",
        "src/opseries/verify.py",
        "rhs = _xd_normal_form(stirling2(m, k) for k in range(m + 1))",
        "rhs = lhs",
    ),
    Mutant(
        "inversion never computes f(g)",
        "src/opseries/verify.py",
        '("f(g)", f_n.compose(g))',
        '("f(g)", ident)',
    ),
    Mutant(
        "the inversion row reads --n and --degree",
        "src/opseries/verify.py",
        '"inversion": ({"trials": 1, "order": 8},',
        '"inversion": ({**_INSTANCE, "order": 8},',
    ),
    Mutant(
        "_trials without its count check: zero trials pass with no report",
        "src/opseries/verify.py",
        '_check_int(trials, 1, "trials must be at least 1")',
        "pass",
    ),
    Mutant(
        "Miller's recurrence in classical_inverse without the - C(k, j+1) of its weight",
        "src/opseries/series.py",
        "(n * row[j] - row[j + 1])",
        "n * row[j]",
    ),
    Mutant(
        "newton_inverse scales its unknowns by c = 1 instead of A_1^2",
        "src/opseries/series.py",
        "c = a[1] * a[1]",
        "c = 1",
    ),
    Mutant(
        "compose without the d^(n-k) that puts row k of the Bell table over d^n",
        "src/opseries/series.py",
        "a[k] * col[k] * dpow[n - k]",
        "a[k] * col[k]",
    ),
    Mutant(
        "reciprocal divides Q_m by one power of the lead too many, A_0^(m+2)",
        "src/opseries/series.py",
        "_quotient([d, *zeros], s, operator.mul), 1)",
        "_quotient([d, *zeros], s, operator.mul), 2)",
    ),
    Mutant(
        "the integer solves scale x without c^(k-1): ln loses its d^(k-1), reciprocal "
        "its A_0^(k-1), exp its e^(k-1)",
        "src/opseries/series.py",
        "scaled = [a[0] // c, *map(operator.mul, a[1:], powers)]",
        "scaled = [a[0] // c, *a[1:]]",
    ),
    Mutant(
        "exp scales x by 1 instead of by its common denominator e",
        "src/opseries/series.py",
        "c = a[0] or d",
        "c = a[0] or 1",
    ),
    Mutant(
        # same output: b_1 .. b_N never read coefficient N + 1 of f, so only the read
        # bound (test_reads_f_only_through_the_inverse_order) sees it
        "operator_inverse iterates from 1/f' of the whole f, reading coefficient N + 1",
        "src/opseries/series.py",
        "_iterates(f.truncate(order))",
        "_iterates(f)",
    ),
)

# same output as the source, so only a call-structure or cost test could see them
EQUIVALENT = (
    Mutant(
        "log_form_inverse hands off to newton_inverse from order 20",
        "src/opseries/series.py",
        "return log_form_terms(f, order).ln()",
        "return newton_inverse(f, order) if order >= 20 else log_form_terms(f, order).ln()",
    ),
    Mutant(
        # math.perm(g, a) is 0 when g < a, and _reduced drops the zero numerators
        "MultiPoly.partial without its divisibility test",
        "src/opseries/multipoly.py",
        "if ((gamma | guard) - packed) & guard == guard:",
        "if True:",
    ),
)


def give_up(message: str) -> NoReturn:
    # SystemExit with a message exits 1, the status of a survivor: print it, exit 2
    print(message, file=sys.stderr)
    raise SystemExit(2)


def copy_tree(dest: Path, mutant: Mutant | None) -> None:
    """Copy the tree to ``dest``, with ``mutant`` applied; exit 2 if it no longer fits."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT, dest, ignore=ignore, dirs_exist_ok=True)
    if mutant is None:
        return
    target = dest / mutant.path
    target.write_text(mutated(target.read_text(), mutant))


def mutated(text: str, mutant: Mutant) -> str:
    """``text`` with ``mutant`` applied; exit 2 unless its old text occurs once."""
    if text.count(mutant.old) != 1:
        give_up(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} "
                f"times in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def tests_fail(mutant: Mutant | None) -> bool:
    with tempfile.TemporaryDirectory(prefix="opseries-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest, mutant)
        env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import opseries; print(opseries.__file__)"],
            cwd=dest, env=env, capture_output=True, text=True,
        ).stdout.strip()
        # an installed opseries found first would hide the mutant
        if not Path(where).resolve().is_relative_to(dest.resolve()):
            give_up(f"the tests would import opseries from {where!r}, not the copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return proc.returncode != 0


def main() -> int:
    for mutant in EQUIVALENT:
        mutated((ROOT / mutant.path).read_text(), mutant)
        print(f"{'equiv':<8}  {'':>6}  {mutant.name}", flush=True)
    if tests_fail(None):
        print("the tests fail on the unmutated tree; no mutant can be judged")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = "killed" if tests_fail(mutant) else "SURVIVED"
        survivors += verdict == "SURVIVED"
        print(f"{verdict:<8}  {time.perf_counter() - start:5.1f}s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
