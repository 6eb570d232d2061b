"""The four workloads: seeded inputs, the calls each operation makes, and the
reference checks on their outputs.

A workload hands out its operations in cycles.  ``cycle(c)`` lists the
operations of cycle ``c`` as plain data and is the same for every pass over
the same seed, so a traced pass can replay exactly what an untraced pass ran.
``setup(api, tmp)`` is the once-per-run set-up and ``run(api, state, op)``
does one operation; only ``run`` is timed.  ``check(op, out)`` returns the
ways the output disagrees with the benchmark's own reference (empty when it
is right).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from pathlib import Path

from stackings import FlowFunction, FunctionOracle, Word

import reference as ref

BS_GENERATORS = ["a", "A", "t", "T"]


def random_reduced(rng: random.Random, tokens: list[str], length: int) -> list[str]:
    """Uniform freely reduced word; ``tokens`` lists inverse pairs as x, X."""
    inverse = {t: tokens[i ^ 1] for i, t in enumerate(tokens)}
    out: list[str] = []
    while len(out) < length:
        tok = rng.choice(tokens)
        if not out or inverse[out[-1]] != tok:
            out.append(tok)
    return out


def _inverse(tokens: list[str]) -> list[str]:
    swap = {"a": "A", "A": "a", "t": "T", "T": "t", "b": "B", "B": "b"}
    return [swap[t] for t in reversed(tokens)]


def _free_reduce(tokens: list[str]) -> list[str]:
    out: list[str] = []
    for t in tokens:
        if out and out[-1] == t.swapcase():
            out.pop()
        else:
            out.append(t)
    return out


def conjugate_commutator(rng: random.Random, lo: int, hi: int) -> list[str]:
    """[x a x^-1, y a y^-1] with random conjugators, freely reduced; trivial
    in BS(1,p) since conjugates of a commute."""
    u = (x := random_reduced(rng, BS_GENERATORS, rng.randint(lo, hi))) + ["a"] + _inverse(x)
    v = (y := random_reduced(rng, BS_GENERATORS, rng.randint(lo, hi))) + ["a"] + _inverse(y)
    return _free_reduce(u + v + _inverse(u) + _inverse(v))


def draw(make, p: int, lo: int, hi: int) -> list[str]:
    """The first word from ``make()`` whose longest prefix normal form in
    BS(1,p) has a length in [lo, hi]."""
    while True:
        w = make()
        if lo <= ref.bs_max_prefix_nf_length(p, w) <= hi:
            return w


def commutator(n: int) -> list[str]:
    """[t^n a t^-n, a], of area 2^(n+1) - 2."""
    u = ["t"] * n + ["a"] + ["T"] * n
    return u + ["a"] + _inverse(u) + ["A"]


class Workload:
    name = ""
    work_unit: str | None = None  # what ``work_done`` counts, if anything

    def __init__(self, params: dict, seed: int) -> None:
        self.params = params
        self.rng = random.Random(f"{self.name}:{seed}")
        self._cycles: list[list] = []

    def cycle(self, c: int) -> list:
        while len(self._cycles) <= c:
            self._cycles.append(self.make_cycle(len(self._cycles)))
        return self._cycles[c]

    def make_cycle(self, c: int) -> list:
        raise NotImplementedError

    def setup(self, api, tmp: Path):
        return None

    def run(self, api, state, op):
        raise NotImplementedError

    def check(self, op, out) -> list[str]:
        raise NotImplementedError

    def work_done(self, op, out) -> int:
        """Units of the workload's own throughput count (faces, edges)."""
        return 0

    def known_defect(self, op) -> bool:
        """Whether ``op`` is expected to fail until a known defect is fixed."""
        return False


class WordProblem(Workload):
    """Decide seeded BS(1,p) words one after another, each cycle a batch on
    one shared structure."""

    name = "wp-bs12"

    def make_cycle(self, c):
        # Words per bucket of longest prefix normal form length: the cost of
        # a word grows with that length, so every cycle gets the same mix of
        # easy and hard words whatever the seed.
        P, p = self.params, self.params["p"]
        make = {
            "random": lambda: random_reduced(self.rng, BS_GENERATORS,
                                             self.rng.randint(*P["random_length"])),
            "trivial": lambda: conjugate_commutator(self.rng, *P["conjugator_length"]),
        }
        words = [draw(make[kind], p, lo, hi)
                 for kind in ("random", "trivial") for lo, hi in P[f"{kind}_buckets"]
                 for _ in range(P["words_per_bucket"])]
        self.rng.shuffle(words)
        return [(i == 0, " ".join(w),
                 " ".join(ref.bs_nf_tokens(*ref.bs_normal_form(p, ref.bs_element(p, w)))))
                for i, w in enumerate(words)]

    def setup(self, api, tmp):
        return {}

    def run(self, api, batch, op):
        # A new batch starts on a new structure, so the normal-form cache,
        # and with it the memory in use, does not grow with the run length.
        new_batch, word, _ = op
        if new_batch:
            batch["s"] = api.bs1p_structure(self.params["p"])
        s = batch["s"]
        nf, _ = api.stacking_reduce_steps(s, s.alphabet.word(word))
        return str(nf)

    def check(self, op, out):
        return [] if out == op[2] else [f"normal form {out!r}, expected {op[2]!r}"]


class VerifyBalls(Workload):
    """Flow-axiom verification jobs, each on a fresh structure."""

    name = "verify-balls"
    work_unit = "edges"

    def make_cycle(self, c):
        jobs = list(self.params["jobs"])
        self.rng.shuffle(jobs)
        return jobs

    def setup(self, api, tmp):
        return {"z2": api.z2_system(), "bs12": api.bs12_system()}

    @staticmethod
    def _oracle(api, S):
        return FunctionOracle(S.alphabet, lambda w: api.reduce_to_irreducible(S, w))

    def run(self, api, systems, job):
        kind, arg = job["structure"].split(":", 1)
        r = job["radius"]
        if kind == "ac":
            report = api.almost_convexity_check(self._oracle(api, systems[arg]), r, job["k"])
            return {"passed": [report.passed]}
        if kind == "crs":
            s = api.crs_structure(systems[arg])
        elif kind == "bs1p":
            s = api.bs1p_structure(int(arg))
        else:  # shortlex-ac:<system>:<ball radius>:<k>
            name, radius, k = arg.split(":")
            s = api.shortlex_ac_structure(self._oracle(api, systems[name]), int(radius), int(k))
        flow = FlowFunction(s)
        oracle = FunctionOracle(s.alphabet, s.normal_form)
        region = api.build_ball(oracle, r + 1)
        ball = api.build_ball(oracle, r)
        report = api.verify_flow_properties(flow, ball, region)
        passed = [report.passed]
        if kind == "shortlex-ac":
            passed.append(api.verify_geodesic_stacking(flow, ball, region).passed)
        return {
            "passed": passed,
            "ball": (len(ball.elements), len(ball.edges)),
            "region": (len(region.elements), len(region.edges)),
            "edges_checked": report.edges_checked,
        }

    @staticmethod
    @functools.cache
    def reference_counts(structure: str, radius: int) -> tuple[int, int]:
        if structure.startswith("bs1p:"):
            return ref.bs_ball_counts(int(structure[5:]), BS_GENERATORS, radius)
        if structure == "crs:bs12":
            return ref.bs_ball_counts(2, ["a", "A", "d", "D", "t", "T"], radius)
        return ref.z2_ball_counts(radius)

    def check(self, job, out):
        problems = [f"verdict {i} is FAIL" for i, ok in enumerate(out["passed"]) if not ok]
        if "ball" in out:
            r = job["radius"]
            for key, radius in (("ball", r), ("region", r + 1)):
                want = self.reference_counts(job["structure"], radius)
                if out[key] != want:
                    problems.append(f"B({radius}) has {out[key]} elements/edges, expected {want}")
        return problems

    def work_done(self, job, out):
        return out.get("edges_checked", 0)


class Filling(Workload):
    """Build, validate and export van Kampen diagrams as ``stackings vkd`` does."""

    name = "fill-bs12"
    work_unit = "faces"

    def make_cycle(self, c):
        # The random words come in buckets of longest prefix normal form
        # length, which sets their area, so every cycle has the same spread of
        # areas whatever the seed; the commutators end each cycle.
        P = self.params
        ops = [(" ".join(draw(lambda: conjugate_commutator(self.rng, *P["conjugator_length"]),
                              2, lo, hi)), None)
               for lo, hi in P["prefix_nf_buckets"] for _ in range(P["words_per_bucket"])]
        lo, hi = P["commutator_n"]
        ops += [(" ".join(commutator(n)), ref.commutator_area(n)) for n in range(lo, hi + 1)]
        return ops

    def run(self, api, state, op):
        s = api.bs1p_structure(2)
        w = s.alphabet.word(op[0])
        nf, _ = api.stacking_reduce_steps(s, w)
        memo: dict = {}
        d = api.build_filling_diagram(s, w, memo=memo)
        relators = api.stacking_relation_set(
            s, [(Word(s.alphabet, src), a) for (src, a), _ in memo.values()]
        )
        report = api.validate_diagram(d, relators, w, s)
        data = api.export_diagram(d, "json")
        return str(nf), report, len(d.faces), data

    def check(self, op, out):
        nf, report, faces, data = out
        problems = []
        if nf:
            problems.append(f"trivial word reduced to {nf!r}")
        for flag in ("boundary_matches", "faces_are_relators", "euler_and_connected",
                     "basepoint_paths", "incidence_consistent"):
            if not getattr(report, flag):
                problems.append(f"validation check {flag} failed")
        obj = json.loads(data)
        inverse = {"a": "A", "A": "a", "t": "T", "T": "t"}
        if ref.diagram_json_boundary(obj, inverse) != op[0].split():
            problems.append("exported boundary word differs from the input word")
        if len(obj["faces"]) != faces:
            problems.append("exported face count differs from the diagram")
        if op[1] is not None and faces != op[1]:
            problems.append(f"area {faces}, expected {op[1]}")
        return problems

    def work_done(self, op, out):
        return out[2]


class CliMix(Workload):
    """A seeded, fixed cycle of in-process ``stackings`` CLI calls."""

    name = "cli-mix"

    def make_cycle(self, c):
        if c:
            return self._cycles[0]
        # Seeded words come from narrow bands of length and of longest prefix
        # normal form length, several per command, so that the cost of a
        # cycle hardly depends on the seed.
        P, rng = self.params, self.rng
        lo, hi = P["prefix_nf_band"]

        def word(tokens):
            return random_reduced(rng, tokens, P["word_length"])

        def bs_word(p):
            return " ".join(draw(lambda: word(BS_GENERATORS), p, lo, hi))

        def trivial():
            return " ".join(draw(lambda: conjugate_commutator(rng, *P["conjugator_length"]), 2, lo, hi))

        ops = []
        for _ in range(P["words_per_command"]):
            z2 = word(["a", "A", "b", "B"])
            z2_code = 0 if ref.z2_element(z2) == (0, 0) else 1
            f_word = word(["x0", "X0", "x1", "X1"])
            f_accepted = ref.thompson_normal_form(f_word)
            bs12 = bs_word(2)
            vkd = trivial()
            ops += [
                # (argv, expected exit code, what the output must show)
                (["nf", "--structure", "bs1p:2", "--word", bs_word(2)], 0, ("bs-nf", 2)),
                (["wp", "--structure", "bs1p:2", "--word", trivial()], 0, ("wp", True)),
                (["nf", "--structure", "bs1p:3", "--word", bs_word(3)], 0, ("bs-nf", 3)),
                (["nf", "--structure", "crs:{bs12}", "--word", bs12], 0, ("bs12-nf", bs12.split())),
                (["wp", "--structure", "crs:{z2}", "--word", " ".join(z2 + rng.sample(_inverse(z2), len(z2)))],
                 0, ("wp", True)),
                (["wp", "--structure", "crs:{z2}", "--word", " ".join(z2)], z2_code, ("wp", z2_code == 0)),
                (["vkd", "--structure", "bs1p:2", "--word", vkd, "--format", "json",
                  "--out", "{tmp}/d.json"], 0, ("vkd-json", vkd)),
                (["vkd", "--structure", "bs1p:2", "--word", vkd, "--format", "dot",
                  "--out", "{tmp}/d.dot"], 0, ("file", "graph diagram {")),
                (["vkd", "--structure", "bs1p:2", "--word", vkd, "--format", "svg",
                  "--out", "{tmp}/d.svg"], 0, ("file", "<svg")),
                (["thompson-nf", "--word", " ".join(f_word)], 0 if f_accepted else 1,
                 ("stdout", "accepted" if f_accepted else "rejected")),
            ]
        ops += [
            (["verify", "--structure", "bs1p:2", "--radius", str(P["verify_radius"])], 0,
             ("verify", ref.bs_ball_counts(2, BS_GENERATORS, P["verify_radius"])[1])),
            (["verify", "--structure", "crs:{z2}", "--radius", str(P["verify_radius"])], 0,
             ("verify", ref.z2_ball_counts(P["verify_radius"])[1])),
            (["verify", "--structure", f"shortlex-ac:{{z2}}:{P['verify_radius'] + 2}:2",
              "--radius", str(P["verify_radius"] - 1)], 0,
             ("verify", ref.z2_ball_counts(P["verify_radius"] - 1)[1])),
            (["ac-check", "--structure", "crs:{z2}", "--radius", str(P["verify_radius"]),
              "--k", "2"], 0, ("pass", None)),
            (["export-ball", "--structure", "bs1p:2", "--radius", str(P["ball_radius"]),
              "--out", "{tmp}/ball.json"], 0,
             ("ball-file", ref.bs_ball_counts(2, BS_GENERATORS, P["ball_radius"])[0])),
            (["export-ball", "--structure", "crs:{bs12}", "--radius", str(P["ball_radius"] - 1)], 0,
             ("ball-stdout", ref.bs_ball_counts(2, ["a", "A", "d", "D", "t", "T"], P["ball_radius"] - 1)[0])),
        ]
        # Known defects, each with the exit code the CLI documents for it.
        for d in P["known_defects"]:
            argv = [re.sub(r"(\S+)\^(\d+)", lambda m: " ".join([m[1]] * int(m[2])), a)
                    for a in d["argv"]]
            ops.append((argv, d["expect"], ("defect", d["defect"])))
        return ops

    def known_defect(self, op) -> bool:
        return op[2][0] == "defect"

    def setup(self, api, tmp):
        files = {}
        for name, build in (("z2", api.z2_system), ("bs12", api.bs12_system)):
            S = build()
            tokens = S.alphabet.tokens
            pairs = {tuple(sorted((t, tokens[S.alphabet.inv(i)]))) for i, t in enumerate(tokens)}
            text = "[generators]\n" + " ".join(tokens) + "\n[inverses]\n"
            text += "".join(f"{u} {v}\n" for u, v in sorted(pairs)) + "[rules]\n"
            text += "".join(f"{r.lhs} -> {r.rhs}\n" for r in S.rules)
            path = tmp / f"{name}.rules"
            path.write_text(text)
            api.load_rewriting_system(path.read_text())
            files[name] = str(path)
        return {"z2": files["z2"], "bs12": files["bs12"], "tmp": str(tmp)}

    def run(self, api, paths, op):
        argv = [a.format(**paths) for a in op[0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = api.cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error ends the process with exit 1
                code = 1
                err.write(f"uncaught {type(exc).__name__}")
        if code != op[1]:
            api.count("cli.exit_mismatches")
        return code, out.getvalue(), err.getvalue(), paths["tmp"]

    def check(self, op, out):
        code, stdout, stderr, tmp = out
        argv, expected, (kind, want) = op
        if code != expected:
            return [f"{argv[0]} exited {code}, expected {expected} ({stderr.strip()[-80:]})"]
        if kind == "bs-nf":
            w = argv[argv.index("--word") + 1].split()
            nf = " ".join(ref.bs_nf_tokens(*ref.bs_normal_form(want, ref.bs_element(want, w))))
            if stdout.splitlines()[0] != nf:
                return [f"nf printed {stdout.splitlines()[0]!r}, expected {nf!r}"]
        elif kind == "bs12-nf":
            printed = stdout.splitlines()[0].split()
            if ref.bs_element(2, printed) != ref.bs_element(2, want):
                return ["crs normal form names another element"]
        elif kind == "wp":
            if stdout.strip() != ("trivial" if want else "nontrivial"):
                return [f"wp printed {stdout.strip()!r}"]
        elif kind == "vkd-json":
            obj = json.loads(Path(tmp, "d.json").read_text())
            inverse = {"a": "A", "A": "a", "t": "T", "T": "t"}
            if ref.diagram_json_boundary(obj, inverse) != want.split():
                return ["exported boundary word differs from the input word"]
            if f"faces: {len(obj['faces'])}" not in stderr:
                return ["reported face count differs from the export"]
        elif kind == "file":
            suffix = argv[argv.index("--format") + 1]
            if not Path(tmp, f"d.{suffix}").read_text().lstrip().startswith(want):
                return [f"{suffix} export does not start with {want!r}"]
        elif kind == "verify":
            edges = re.search(r"\((\d+) edges", stdout)
            if "FAIL" in stdout or edges is None or int(edges.group(1)) != want:
                return [f"verify printed {stdout.strip()!r}, expected PASS on {want} edges"]
        elif kind == "pass":
            if "PASS" not in stdout:
                return [f"printed {stdout.strip()!r}"]
        elif kind == "stdout":
            if stdout.strip() != want:
                return [f"printed {stdout.strip()!r}, expected {want!r}"]
        elif kind in ("ball-file", "ball-stdout"):
            text = Path(tmp, "ball.json").read_text() if kind == "ball-file" else stdout
            if len(json.loads(text)["elements"]) != want:
                return [f"ball has {len(json.loads(text)['elements'])} elements, expected {want}"]
        return []


WORKLOADS = {cls.name: cls for cls in (WordProblem, VerifyBalls, Filling, CliMix)}
