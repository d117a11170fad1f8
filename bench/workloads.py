"""The benchmark workloads: seeded inputs, the timed op, and its gate.

Each workload turns a seed into a fixed list of inputs (``corpus_data``,
then ``bind_all`` to build the program's values from them), runs
one op on one input (``run``, timed and under the time cap) and checks the
op's output independently of the timed calls (``check``, untimed).  Why
each workload exists, and which layer metric should move which end-to-end
metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference

NEG_DEFINITE, POS_DEFINITE = "neg_definite", "pos_definite"
NEG_SEMIDEFINITE, POS_SEMIDEFINITE = "neg_semidefinite", "pos_semidefinite"
TARGETS = (NEG_DEFINITE, POS_DEFINITE, NEG_SEMIDEFINITE, POS_SEMIDEFINITE)

# 6x6 positive-definite integer matrix with no integer Gram factor C C^T
# (the obstruction shipped with kinkeq); every unimodular congruence of it
# is obstructed too, so cct_search must answer "none" on all of them.
OBSTRUCTED = (
    (2, 1, 1, 1, 0, 0),
    (1, 2, 1, 1, 1, 0),
    (1, 1, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1),
    (0, 1, 1, 1, 2, 1),
    (0, 0, 1, 1, 1, 2),
)


@dataclass
class Input:
    """One op's input: plain data for the gate, program values for the op."""

    data: tuple
    value: object = None


class Workload:
    name = ""
    cap_s = 0.0  # per-op time cap in reference seconds; an op that reaches it fails
    corpus = 0  # inputs made per seed; a run cycles through them
    trace_ops = 0  # inputs of the fixed traced run

    def make(self, rng: random.Random, i: int) -> tuple:
        """Plain data for input ``i``."""
        raise NotImplementedError

    def corpus_data(self, seed: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(rng, i) for i in range(self.corpus)]

    def bind_all(self, p, corpus: list[tuple], workdir: Path) -> list[Input]:
        """The program's values for each input: the timed part of set-up."""
        return [self.bind(p, data, i, workdir) for i, data in enumerate(corpus)]

    def bind(self, p, data: tuple, i: int, workdir: Path) -> Input:
        """Input ``i`` with its program value; may write files to ``workdir``."""
        raise NotImplementedError

    def run(self, p, inp: Input) -> tuple[dict[str, float], object]:
        """Run the op; return (seconds per phase, output)."""
        raise NotImplementedError

    def check(self, inp: Input, out) -> tuple[str | None, dict]:
        """Return (failure reason or None, certificate sizes)."""
        raise NotImplementedError


def _random_sym(rng: random.Random, n: int, entry) -> list[list]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry()
    return rows


class Reduce(Workload):
    """reduce -> serialize_trace, then parse_trace -> verify_trace."""

    name = "reduce"
    cap_s = 30.0
    corpus = 2000
    trace_ops = 48
    int_sizes = (4, 5, 5)
    rational_size = 3

    def make(self, rng, i):
        # Cycles of four independent ops: integer matrices of n = 4, 5, 5
        # with entries in [-9, 9], then one rational matrix of n = 3 with
        # entries p/q, |p| <= 4, 1 <= q <= 4.  Integer targets cycle
        # through all four classes, rational ones through the two
        # semidefinite ones; definite targets get nonsingular matrices.
        # Integer n = 6 and rational n = 4 are left out: about once in 500
        # such ops the reducer asks four_squares for a K of 48-60 bits, and
        # that one call can take minutes (320 s for one n = 6 matrix), longer
        # than a run may last.  The search workload measures that cost.
        slot, turn = i % 4, i // 4
        if slot < 3:
            n, target = self.int_sizes[slot], TARGETS[turn % 4]
            entry = lambda: rng.randint(-9, 9)
        else:
            n = self.rational_size
            target = (NEG_SEMIDEFINITE, POS_SEMIDEFINITE)[turn % 2]
            entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        while True:
            rows = _random_sym(rng, n, entry)
            if target in (NEG_SEMIDEFINITE, POS_SEMIDEFINITE) or reference.signature(rows)[3]:
                return rows, target

    def bind(self, p, data, i, workdir):
        return Input(data, p.exact.SymMatrix.from_rows(data[0]))

    def run(self, p, inp):
        t0 = perf_counter()
        text = certify(p, inp.value, inp.data[1])
        t1 = perf_counter()
        report = verify(p, text)
        return {"certify": t1 - t0, "verify": perf_counter() - t1}, (text, report)

    def check(self, inp, out):
        return check_certificate(*inp.data, *out)


def certify(p, G, target: str) -> str:
    return p.formats.serialize_trace(p.reducer.reduce(G, target))


def verify(p, text: str):
    return p.moves.verify_trace(p.formats.parse_trace(text))


def check_certificate(rows, target: str, text: str, report) -> tuple[str | None, dict]:
    """Gate for one certificate: it verifies, reaches the target class,
    keeps nullity and |det|, and stays within the kink bounds."""
    if not report.valid:
        return f"certificate rejected at step {report.failed_step}: {report.reason}", {}
    start, moves, end = reference.read_trace(text)
    sizes = {
        "trace_bytes": len(text),
        "moves": len(moves),
        "end_entry_bits": reference.max_entry_bits(end),
    }
    if start != [[Fraction(x) for x in row] for row in rows]:
        return "start matrix differs from the input", sizes
    s_plus, s_minus, s_zero, s_det = reference.signature(start)
    e_plus, e_minus, e_zero, e_det = reference.signature(end)
    reached = {
        NEG_DEFINITE: e_plus == 0 and e_zero == 0,
        NEG_SEMIDEFINITE: e_plus == 0,
        POS_DEFINITE: e_minus == 0 and e_zero == 0,
        POS_SEMIDEFINITE: e_minus == 0,
    }[target]
    if not reached:
        return f"end inertia ({e_plus}, {e_minus}, {e_zero}) misses {target}", sizes
    if e_zero != s_zero or e_det != s_det:
        return "nullity or |det| not preserved", sizes
    negative = target in (NEG_DEFINITE, NEG_SEMIDEFINITE)
    eliminated = s_plus if negative else s_minus
    integral = all(x.denominator == 1 for row in start for x in row)
    budget = (4 if integral else 5) * eliminated
    kinks = moves.count(("kink", "-1" if negative else "+1"))
    unkinks = moves.count(("unkink", "+1" if negative else "-1"))
    if kinks > budget or unkinks != eliminated:
        return f"{kinks} kinks (budget {budget}), {unkinks} unkinks (need {eliminated})", sizes
    return None, sizes


def _cli(p, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = p.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


class InvariantsLarge(Workload):
    """kinkeq goeritz -> kinkeq inertia -> kinkeq det, in process."""

    name = "invariants-large"
    cap_s = 10.0
    corpus = 60
    trace_ops = 10
    regions = (40, 160)

    def corpus_data(self, seed):
        # Region counts fill [40, 160] evenly in every prefix of the corpus
        # (golden-ratio steps from a seeded start), so a run's median and
        # tail do not depend on where a few discrete sizes fall.
        rng = random.Random(f"{self.name}:{seed}")
        phase = rng.random()
        low, high = self.regions
        return [
            self.diagram(rng, low + int((high - low + 1) * ((phase + i * 0.6180339887498949) % 1.0)))
            for i in range(self.corpus)
        ]

    @staticmethod
    def diagram(rng, count):
        # Checkerboard graphs of link diagrams are planar: regions sit on a
        # grid and crossings join grid neighbours, every row and the first
        # column fully joined so the graph is connected; some neighbours
        # share two crossings (a twist).
        width = max(2, round(count**0.5))
        crossings = []
        for r in range(count):
            right, down = r + 1, r + width
            for j, always in ((right, True), (down, r % width == 0)):
                if j >= count or (j == right and right % width == 0):
                    continue
                if always or rng.random() < 0.8:
                    for _ in range(2 if rng.random() < 0.2 else 1):
                        crossings.append((r, j, rng.choice((1, -1))))
        return count, tuple(crossings)

    def bind(self, p, data, i, workdir):
        count, crossings = data
        diagram = workdir / f"diagram-{i}.txt"
        lines = [f"regions {count}"] + [f"{a} {b} {'+' if s > 0 else '-'}" for a, b, s in crossings]
        diagram.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return Input(data, (str(diagram), str(workdir / f"goeritz-{i}.txt")))

    def run(self, p, inp):
        diagram, matrix = inp.value
        t0 = perf_counter()
        outputs = [_cli(p, ["goeritz", diagram])]
        t1 = perf_counter()
        Path(matrix).write_text(outputs[0][1], encoding="utf-8")
        t2 = perf_counter()
        outputs += [_cli(p, ["inertia", matrix]), _cli(p, ["det", matrix])]
        t3 = perf_counter()
        return {"goeritz": t1 - t0, "query": t3 - t2}, outputs

    def check(self, inp, out):
        count, crossings = inp.data
        if any(code != 0 for code, _ in out):
            return f"exit codes {[code for code, _ in out]}: {out[-1][1].strip()}", {}
        header, *rows = out[0][1].splitlines()
        expected = reference.goeritz_rows(count, crossings)
        if header != f"sym {count - 1}" or [[int(t) for t in r.split()] for r in rows] != expected:
            return "goeritz matrix differs from the crossing data", {}
        n_plus, n_minus, n_zero = (int(t) for t in out[1][1].split())
        det = Fraction(out[2][1].strip())
        if n_plus + n_minus + n_zero != count - 1:
            return "inertia does not add up to the size", {}
        if (det == 0) != (n_zero > 0) or (det != 0 and (det > 0) != (n_minus % 2 == 0)):
            return f"det {det} disagrees with inertia ({n_plus}, {n_minus}, {n_zero})", {}
        return None, {}


class Search(Workload):
    """four_squares, and cct_search (-> icct_trace on a hit)."""

    name = "search"
    cap_s = 10.0
    corpus = 10000  # more than a 35 s run takes, so no input is met twice
    trace_ops = 64
    ladder = tuple(range(16, 37, 4))  # bit lengths of K
    twos = 4  # K = 2^t * odd with 0 <= t < twos

    def make(self, rng, i):
        # A cycle of 8 ops: three K = 2^t * odd, one K = 4^a (8b + 7) with
        # a <= 1 (not a sum of three squares), one Gram matrix C C^T and
        # three obstructed matrices.  Sizes walk the ladders so each seed
        # covers them: every 8 cycles hold one K of each (bit length, t).  The
        # descending search's cost grows about 4x per 4 bits and per 2 in t,
        # so both axes are stratified rather than drawn: a uniformly random
        # K has t >= 10 once in a thousand draws and then runs for seconds
        # to minutes, and one such draw would decide a whole run.  The grid
        # stops where one K stays well under 0.1 s, so that no op nears the
        # cap and the slowest ops of a run are the 6x6 Gram searches, whose
        # times are close together: that keeps op_tail_ms steady.
        slot, turn = i % 8, i // 8
        if slot < 3:
            cell = 3 * turn + slot
            bits = self.ladder[cell % len(self.ladder)]
            t = cell // len(self.ladder) % self.twos
            odd = rng.getrandbits(bits - t - 2) << 1 | 1 << (bits - t - 1) | 1
            return "four_squares", odd << t
        if slot == 3:
            bits = self.ladder[turn % len(self.ladder)]
            a = rng.randint(0, 1)
            b = rng.getrandbits(bits - 2 * a - 4) | 1 << (bits - 2 * a - 4)
            return "four_squares", 4**a * (8 * b + 7)
        if slot == 4:
            n = 3 + turn % 4
            m = n + rng.randint(0, 2)
            c_rows = []
            while len(c_rows) < n:
                row = [rng.choice((-1, 0, 0, 1)) for _ in range(m)]
                if any(row):
                    c_rows.append(row)
            return "gram", reference.gram(c_rows)
        rows = [list(r) for r in OBSTRUCTED]
        for _ in range(2):
            a, b = rng.sample(range(6), 2)
            s = rng.choice((1, -1))
            # congruence by the shear e_a += s e_b: row a, then column a
            rows[a] = [x + s * y for x, y in zip(rows[a], rows[b])]
            for row in rows:
                row[a] += s * row[b]
        return "obstructed", rows

    def bind(self, p, data, i, workdir):
        kind, arg = data
        return Input(data, arg if kind == "four_squares" else p.exact.SymMatrix.from_rows(arg))

    def run(self, p, inp):
        kind = inp.data[0]
        t0 = perf_counter()
        if kind == "four_squares":
            out = p.reducer.four_squares(inp.value)
        else:
            factor = p.cct.cct_search(inp.value)
            out = (factor, factor and p.cct.icct_trace(factor.matrix))
        return {"search": perf_counter() - t0}, out

    def check(self, inp, out):
        kind, arg = inp.data
        if kind == "four_squares":
            a, b, c, d = out
            if not a >= b >= c >= d >= 0 or a * a + b * b + c * c + d * d != arg:
                return f"{out} is not a sorted four-square sum of {arg}", {}
            return None, {}
        factor, chain = out
        if kind == "obstructed":
            return (None if factor is None else "found a factor of an obstructed matrix"), {}
        if factor is None:
            return "no factor found for a Gram matrix", {}
        c_rows = [list(r) for r in factor.matrix.entries]
        if reference.gram(c_rows) != arg:
            return "C C^T differs from the input", {}
        n, m = len(c_rows), factor.matrix.cols
        plus = [[x + (i == j) for j, x in enumerate(r)] for i, r in enumerate(arg)]
        ctc = reference.gram([list(col) for col in zip(*c_rows)])
        minus = [[-(x + (i == j)) for j, x in enumerate(r)] for i, r in enumerate(ctc)]
        kinds = [type(move).__name__ for move in chain.moves]
        if (
            [list(r) for r in chain.start.entries] != plus
            or [list(r) for r in chain.end.entries] != minus
            or kinds.count("Kink") != m
            or kinds.count("Unkink") != n
        ):
            return "icct chain does not run from I + CC^T to -(I + C^T C)", {}
        return None, {}


WORKLOADS = {w.name: w for w in (Reduce(), InvariantsLarge(), Search())}
