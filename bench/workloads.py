"""The two serial benchmark workloads: input generation, the timed
operation, and the checks on its outputs.

Each workload's ``setup(seed, work)`` generates the inputs from the seed and
writes what the program reads from disk into ``work``; ``run(inputs)`` is the
user-facing operation that is timed; ``check(inputs, out)`` verifies the
outputs with independent numpy recomputations and returns an ``Outcome``.
The program only ever sees the generated arrays or files.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kanhydro import cli, harness, hydro, kan, symbolic

PHI_RANGE = (0.2, 5.0)
NOISE_SIGMA = 0.02


@dataclass
class Outcome:
    attempted: int
    failed: int
    test_nse: float
    errors: list = field(default_factory=list)


# Published formulas, written out here so the checks do not call the model
# code under test.
REFERENCE_MODELS = {
    "original_fb": ("qb_over_p",
                    lambda p: np.exp(1.05 * (-p ** 1.71 - 0.873))),
    "original_fd": ("qd_over_p",
                    lambda p: np.exp(1.06 * (-p ** 0.77 - 0.864))),
    "kan_fb": ("qb_over_p", lambda p: 0.39 - 0.34 * np.tanh(1.42 * p - 0.82)),
    "kan_inspired_fb": ("qb_over_p",
                        lambda p: 0.7573 - 0.7243 * np.tanh(p)),
    "FB": ("qb", lambda p: 47.13 + 1932.52 * np.exp(-1.42 * (p + 0.29) ** 2)),
    "FD": ("qd", lambda p: 616.82 - 418.39 * np.arctan(2.84 * p - 0.87)),
}


def nse(obs, sim) -> float:
    return 1.0 - float(np.sum((obs - sim) ** 2)) / float(
        np.sum((obs - obs.mean()) ** 2))


def all_metrics(obs, sim) -> dict:
    """NSE, KGE (2012), RMSE and squared Pearson R, as the CLI reports them."""
    do, ds = obs - obs.mean(), sim - sim.mean()
    r = float(do @ ds) / math.sqrt(float(do @ do) * float(ds @ ds))
    beta = sim.mean() / obs.mean()
    gamma = (sim.std() / sim.mean()) / (obs.std() / obs.mean())
    kge = 1.0 - math.sqrt((r - 1) ** 2 + (beta - 1) ** 2 + (gamma - 1) ** 2)
    return {"nse": nse(obs, sim), "kge": kge,
            "rmse": math.sqrt(float(np.mean((obs - sim) ** 2))), "r2": r * r}


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def run_cli(argv):
    """Run one ``kanhydro`` command in-process.

    Returns (exit code, stdout, crash), where crash describes an exception
    that escaped ``main`` (the exit code is then None). Only the description
    is kept: the traceback's frames would hold the command's loaded data
    until a cyclic garbage collection and slow the operations after it.
    """
    out, err = io.StringIO(), io.StringIO()
    code = crash = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crashed command counts as failed
            crash = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), crash


@dataclass
class Catchments:
    path: Path
    p: np.ndarray
    pet: np.ndarray
    qb: np.ndarray
    qd: np.ndarray

    @property
    def phi(self):
        return self.pet / self.p

    def column(self, name):
        return {"qb_over_p": self.qb / self.p, "qd_over_p": self.qd / self.p,
                "qb": self.qb, "qd": self.qd}[name]


def write_catchments(path: Path, n: int, seed: int) -> Catchments:
    """n catchments whose baseflow ratio follows kan_fb plus noise."""
    phi, qb_over_p = hydro.synth_generate(hydro.FIXED_MODELS["kan_fb"], n,
                                          PHI_RANGE, NOISE_SIGMA, seed)
    rng = np.random.default_rng([seed, 1])
    p = rng.uniform(300.0, 2500.0, n)
    qb_over_p = np.maximum(qb_over_p, 1e-3)
    # direct runoff takes a share of what baseflow leaves, so qb + qd < p
    qd_over_p = ((1.0 - qb_over_p) * REFERENCE_MODELS["original_fd"][1](phi)
                 * rng.uniform(0.5, 1.0, n))
    pet, qb, qd = phi * p, qb_over_p * p, qd_over_p * p
    lines = ["gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"]
    for k, row in enumerate(zip(p.tolist(), pet.tolist(), qb.tolist(),
                                qd.tolist())):
        lines.append(f"g{k:06d}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Catchments(path, p, pet, qb, qd)


def read_last_column(path: Path) -> np.ndarray:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(r.rsplit(",", 1)[1]) for r in rows])


class RecoverTanh:
    """A reduced criterion-5 sweep: grid search, then the pipeline once more
    on the whole training split, scored on the held-out split.

    The data is criterion 5's own draw (data seed 42), whatever the run's
    seed: criterion 5's checks hold for that draw, while on other draws of
    the same law the reduced sweep can legitimately end on a gaussian or
    sigmoid snap (data seeds 3, 4 and 5 of 1-5 did), which the checks would
    reject.
    """

    name = "recover_tanh"
    config = {"seeds": [0], "folds": 2}  # default shapes and grid intervals
    data_seed = 42

    def __init__(self):
        self.first_formula = None

    def setup(self, seed: int, work: Path):
        phi, ys = hydro.synth_generate(hydro.FIXED_MODELS["kan_fb"], 302,
                                       PHI_RANGE, NOISE_SIGMA, self.data_seed)
        xs = phi.reshape(-1, 1)
        tr, te = harness.split_indices(302, 0.8, seed=0)
        return xs[tr], ys[tr], xs[te], ys[te]

    def run(self, inputs):
        x_tr, y_tr, x_te, y_te = inputs
        cfg = harness.GridSearchConfig(**self.config)
        best, table = harness.grid_search(cfg, x_tr, y_tr)
        res = harness.run_pipeline(x_tr, y_tr, x_te, y_te, best,
                                   lambda_=cfg.lambda_,
                                   prune_threshold=cfg.prune_threshold,
                                   train_max_iters=cfg.train_max_iters)
        return best, table, res

    def check(self, inputs, out) -> Outcome:
        _, _, x_te, y_te = inputs
        best, table, res = out
        folds = [s for row in table for s in row["fold_r2"]]
        errors = []
        # criterion 5 without its time bound
        per_layer = [0] * (len(best.shape) - 1)
        for l, _, _, e in res.network.iter_edges():
            if not (e.lock is not None and e.lock.candidate.name == "0"):
                per_layer[l] += 1
        if any(n != 1 for n in per_layer):
            errors.append(f"not a single path: edges per layer {per_layer}")
        snaps = [s["best"] for s in res.snap_results]
        if not snaps or not all(s[0] == "tanh" and s[5] > 0.999
                                for s in snaps):
            errors.append(f"snaps are not all tanh with R2 > 0.999: {snaps}")
        pred = symbolic.eval_expression(res.formula, x_te)
        ref = REFERENCE_MODELS["kan_fb"][1](x_te[:, 0])
        ref_nse = nse(ref, pred)
        if not ref_nse >= 0.95:
            errors.append(f"NSE against the noise-free formula {ref_nse:.4f}"
                          " < 0.95")
        if self.first_formula is None:
            self.first_formula = res.formula_str
        elif res.formula_str != self.first_formula:
            errors.append("formula differs between repeats: "
                          f"{res.formula_str!r} vs {self.first_formula!r}")
        return Outcome(len(folds), sum(1 for s in folds if s == -np.inf),
                       nse(y_te, pred), errors)


class ScoreCsv:
    """The read side: evaluate every fixed model and a checkpoint over 50k
    rows, then export curves."""

    name = "score_csv"
    rows = 50000
    repeats = 5
    # the checkpoint reproduces kan_fb exactly: tanh with its published
    # (a, b, c, d)
    checkpoint_lock = ("tanh", 1.42, -0.82, -0.34, 0.39)

    def setup(self, seed: int, work: Path):
        data = write_catchments(work / "catchments.csv", self.rows, seed)
        net = kan.init_network([1, 1], grid_intervals=3, seed=0)
        name, a, b, c, d = self.checkpoint_lock
        net.layers[0].edges[0][0].lock = kan.SymbolicLock(
            symbolic.candidate_by_name(name), a, b, c, d)
        ckpt = work / "checkpoint.json"
        ckpt.write_text(net.to_json(), encoding="utf-8")
        return data, ckpt, work

    def commands(self, inputs):
        """The argument lists of one operation's commands, in order."""
        data, ckpt, work = inputs
        csv = str(data.path)
        models = list(REFERENCE_MODELS) + [f"checkpoint:{ckpt}"]
        cmds = []
        for k, model in enumerate(models):
            argv = ["evaluate", "--data", csv, "--model", model,
                    "--repeats", str(self.repeats),
                    "--out", str(work / f"pred{k}.csv")]
            if model.startswith("checkpoint:"):
                argv += ["--target", "qb_over_p"]
            cmds.append(argv)
        fixed = ",".join(REFERENCE_MODELS)
        # the second export includes the checkpoint; it currently raises a
        # TypeError and is kept so the failure stays counted
        for k, names in enumerate((fixed, f"kan_fb,checkpoint:{ckpt}")):
            cmds.append(["plotdata", "--models", names, "--data", csv,
                         "--out", str(work / f"curves{k}.csv")])
        return cmds

    def run(self, inputs):
        return [run_cli(argv) for argv in self.commands(inputs)]

    @staticmethod
    def _reference(model, phi):
        """(target column, expected predictions); a checkpoint must match
        the program's own kan_fb."""
        if model.startswith("checkpoint:"):
            return "qb_over_p", hydro.eval_kan_fB(phi)
        target, fn = REFERENCE_MODELS[model]
        return target, fn(phi)

    def _check_evaluate(self, argv, stdout, data, errors):
        model = argv[argv.index("--model") + 1]
        target, pred = self._reference(model, data.phi)
        obs = data.column(target)
        doc = json.loads(stdout)
        if doc["n"] != obs.size or doc["target"] != target:
            errors.append(f"evaluate {model}: n/target {doc['n']}, "
                          f"{doc['target']}")
        for key, want in all_metrics(obs, pred).items():
            if not close(doc["metrics"][key], want, 1e-12):
                errors.append(f"evaluate {model}: {key} "
                              f"{doc['metrics'][key]!r} != {want!r}")
        n_train = math.ceil(0.8 * obs.size)
        stats = []
        for rep in range(self.repeats):
            te = np.sort(np.random.default_rng(rep).permutation(obs.size)
                         [n_train:])
            stats.append(nse(obs[te], pred[te]))
        rep = doc["repeat_test_nse"]
        if not (close(rep["mean"], float(np.mean(stats)), 1e-12)
                and close(rep["std"], float(np.std(stats)), 1e-12)):
            errors.append(f"evaluate {model}: repeat NSE {rep}")
        written = read_last_column(Path(argv[argv.index("--out") + 1]))
        if written.shape != pred.shape or not np.allclose(
                written, pred, rtol=1e-9, atol=1e-12):
            errors.append(f"evaluate {model}: --out predictions differ")
        return rep["mean"] if model.startswith("checkpoint:") else None

    def _check_plotdata(self, argv, data, errors):
        out = Path(argv[argv.index("--out") + 1])
        names = argv[argv.index("--models") + 1].split(",")
        rows = out.read_text(encoding="utf-8").splitlines()
        phis = np.linspace(0.2, 5.0, 481)  # plotdata's default phi grid
        if rows[0].split(",") != ["phi"] + names or len(rows) != 482:
            errors.append(f"plotdata {names}: header or row count")
            return
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        for k, name in enumerate(names, start=1):
            want = self._reference(name, phis)[1]
            if not np.allclose(table[:, k], want, rtol=1e-9, atol=1e-12):
                errors.append(f"plotdata {name}: curve differs")
        scatter = Path(str(out) + ".scatter.csv")
        phi_col = np.array([float(r.split(",", 1)[0]) for r in
                            scatter.read_text(encoding="utf-8")
                            .splitlines()[1:]])
        if not np.allclose(phi_col, data.phi, rtol=1e-9):
            errors.append(f"plotdata {names}: scatter phi differs")

    def check(self, inputs, out) -> Outcome:
        data = inputs[0]
        errors = []
        failed = 0
        test_nse = math.nan
        for argv, (code, stdout, _) in zip(self.commands(inputs), out):
            if code != 0:
                failed += 1
                continue
            if argv[0] == "evaluate":
                got = self._check_evaluate(argv, stdout, data, errors)
                if got is not None:
                    test_nse = got
            else:
                self._check_plotdata(argv, data, errors)
        if math.isnan(test_nse):
            errors.append("the checkpoint's evaluate gave no held-out NSE")
        return Outcome(len(out), failed, test_nse, errors)


WORKLOADS = {w.name: w for w in (RecoverTanh, ScoreCsv)}
