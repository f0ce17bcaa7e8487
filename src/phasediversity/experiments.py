"""Experiment configuration and batch runners behind the CLI.

Configuration lives in flat namespaced key/value text::

    problem.type = zernike
    problem.n = 32
    solver.method = LBFGS
    restarts = 10  # seeds solver.seed .. solver.seed + 9

A ``#`` at the start of a line or after whitespace starts a comment.
``--set key=value`` overrides use the same keys.  The ordered key table
``_KEYS`` (flat key -> attribute, parser) drives both parsing and
:meth:`ExperimentConfig.to_flat`; ``problem.<name>`` parameters take the
types of ``PROBLEM_DEFAULTS``, and an unset value is written ``none``.
Every output file embeds the fully resolved configuration (as
``# key = value`` comment lines in CSVs, under a ``config`` entry in
JSON) so artifacts are self-describing.  Restart seeds are
``solver.seed + restart_index``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fields import atomic_open, key_value_lines, load_field, parse_key_values
from .forward import DEFOCUS, DiversityPlan, TransformCounter
from .hessian import (
    clustering_comparison,
    closed_form_spectrum,
    dense_hessian,
    hessian_diagonals,
    plane_matrix,
)
from .objectives import (
    DEFAULT_EPSILON,
    MODELS,
    DataMisfit,
    MeasurementSet,
    ObjectiveSpec,
    objective_floor,
)
from .optimizers import (
    METHODS,
    RunTrace,
    SolverConfig,
    misell_iterate,
    modulus_residual,
    solve,
)
from .problems import (
    PROBLEM_DEFAULTS,
    PROBLEM_TYPES,
    ProblemInstance,
    add_poisson_noise,
    build_problem,
    morozov_stop,
    save_instance,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config_text",
    "config_from_sources",
    "initial_guess",
    "build_instance",
    "reconcile_noise",
    "run_solve",
    "run_compare_methods",
    "run_compare_models",
    "run_analyze_hessian",
    "iterations_to_rms",
    "COMPARE_METHODS",
]

COMPARE_METHODS = ("SD", "NCG", "LBFGS", "TN")


class ConfigError(ValueError):
    """Invalid configuration key or value; maps to CLI exit code 2."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str):
    return tuple(float(t) for t in text.split(",") if t.strip())


def _upper(text: str) -> str:
    return text.strip().upper()


def _optional(parse):
    """``parse``, with ``none`` or an empty value read as None."""
    return lambda text: None if text.strip().lower() in ("none", "") else parse(text)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; defaults give the n=32 benchmark."""

    problem_type: str = "zernike"
    n: int = 32
    problem_seed: int = 0
    problem_params: dict = field(default_factory=dict)
    defocus: tuple = (-3.0, 3.0)
    amplitude_plane: bool = True
    model: str = "LS"
    epsilon: float = DEFAULT_EPSILON
    solver: SolverConfig = field(default_factory=SolverConfig)
    restarts: int = 10
    snr: float | None = None
    noise_seed: int = 0
    morozov: bool = False
    morozov_tau: float = 1.05
    success_rms: float = 1e-5
    output_dir: str | None = None

    def __post_init__(self):
        if self.problem_type not in PROBLEM_TYPES:
            raise ConfigError(f"problem.type must be one of {PROBLEM_TYPES}, "
                              f"got {self.problem_type!r}")
        if self.model not in MODELS:
            raise ConfigError(f"objective.model must be one of {MODELS}, "
                              f"got {self.model!r}")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        known = set(PROBLEM_DEFAULTS[self.problem_type])
        unknown = set(self.problem_params) - known
        if unknown:
            raise ConfigError(
                f"unknown problem.{self.problem_type} parameter(s): "
                f"{', '.join(sorted(unknown))}")

    def to_flat(self) -> dict:
        """Flat key -> value in ``_KEYS`` order, problem parameters after
        ``problem.seed``."""
        params = {**PROBLEM_DEFAULTS[self.problem_type], **self.problem_params}
        flat = {}
        for key, (attr, _) in _KEYS.items():
            owner, _, name = attr.rpartition(".")
            value = getattr(self.solver if owner else self, name)
            if value is None:
                value = "none"
            elif isinstance(value, (tuple, list)):
                value = ",".join(f"{d:g}" for d in value)
            flat[key] = value
            if key == "problem.seed":
                flat.update({f"problem.{k}": v for k, v in sorted(params.items())})
        return flat


# flat key -> (attribute, parser); "solver.x" names SolverConfig.x
_KEYS = {
    "problem.type": ("problem_type", str),
    "problem.n": ("n", int),
    "problem.seed": ("problem_seed", int),
    "plan.defocus": ("defocus", _parse_float_list),
    "plan.amplitude_plane": ("amplitude_plane", _parse_bool),
    "objective.model": ("model", _upper),
    "objective.epsilon": ("epsilon", float),
    "solver.method": ("solver.method", _upper),
    "solver.max_iters": ("solver.max_iters", int),
    "solver.tol_fun": ("solver.tol_fun", float),
    "solver.tol_x": ("solver.tol_x", float),
    "solver.grad_tol": ("solver.grad_tol", float),
    "solver.c1": ("solver.c1", float),
    "solver.c2": ("solver.c2", float),
    "solver.lbfgs_memory": ("solver.lbfgs_memory", int),
    "solver.tn_cg_max": ("solver.tn_cg_max", _optional(int)),
    "solver.seed": ("solver.seed", int),
    "restarts": ("restarts", int),
    "noise.snr": ("snr", _optional(float)),
    "noise.seed": ("noise_seed", int),
    "morozov.enabled": ("morozov", _parse_bool),
    "morozov.tau": ("morozov_tau", float),
    "summary.success_rms": ("success_rms", float),
    "output_dir": ("output_dir", _optional(str)),
}

_COMMENT = re.compile(r"(?:^|\s)#")

# problem.<name> parsers, from the types of the generator defaults
_PARAM_TYPES = {name: type(value) for defaults in PROBLEM_DEFAULTS.values()
                for name, value in defaults.items()}


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines, blank lines ignored.  A '#' at the start
    of a line or after whitespace starts a comment; any other '#' is data,
    so ``output_dir = runs/#1`` keeps its value."""
    try:
        return parse_key_values(_COMMENT.split(raw, 1)[0]
                                for raw in text.splitlines())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    parts: dict = {"": {}, "solver": {}, "params": {}}  # by owner; "" = config
    for key, value in mapping.items():
        if key in _KEYS:
            attr, parse = _KEYS[key]
        elif key.startswith("problem.") and key[8:] in _PARAM_TYPES:
            attr, parse = f"params.{key[8:]}", _PARAM_TYPES[key[8:]]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        owner, _, name = attr.rpartition(".")
        try:
            parts[owner][name] = parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(problem_params=parts["params"],
                                solver=SolverConfig(**parts["solver"]), **parts[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_sources(path=None, overrides=()) -> ExperimentConfig:
    """Build a config from an optional file plus --set style overrides."""
    mapping: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        mapping.update(parse_config_text(p.read_text()))
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    return config_from_mapping(mapping)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def initial_guess(mask: np.ndarray, seed: int) -> np.ndarray:
    """Unit amplitude in the pupil, phase uniform on (-pi, pi], zero outside."""
    rng = np.random.default_rng(seed)
    theta = np.pi - rng.uniform(0.0, 2.0 * np.pi, size=mask.shape)
    return np.where(mask, np.exp(1j * theta), 0.0 + 0.0j)


def build_instance(config: ExperimentConfig) -> ProblemInstance:
    try:
        return build_problem(config.problem_type, config.n,
                             seed=config.problem_seed,
                             defocus=config.defocus,
                             amplitude_plane=config.amplitude_plane,
                             snr=config.snr, noise_seed=config.noise_seed,
                             **config.problem_params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _objective_spec(config: ExperimentConfig, instance: ProblemInstance,
                    model: str | None = None) -> ObjectiveSpec:
    return ObjectiveSpec(model or config.model, config.epsilon,
                         instance.plan, instance.data, instance.grid)


def _projection_planes(instance: ProblemInstance):
    """Defocus planes and their data for the projection baseline.

    The alternating-projection baseline cycles over the diversity
    (transform-domain) moduli; the pupil amplitude measurement is an
    object-domain constraint and is left to the misfit solvers.
    """
    pairs = [(p, i) for p, i in zip(instance.plan, instance.data.intensities)
             if p.kind == DEFOCUS]
    if len(pairs) < 2:
        raise ConfigError("projection baseline needs at least two defocus planes")
    return (DiversityPlan([p for p, _ in pairs]),
            MeasurementSet([i for _, i in pairs]))


def reconcile_noise(config: ExperimentConfig,
                    instance: ProblemInstance) -> ProblemInstance:
    """Apply configured noise to a clean instance; reject contradictions.

    Instances created by ``simulate`` with noise already carry noisy
    data, so noise is applied at most once.  A solve config requesting
    different noise than the instance was built with is an error, not a
    silent override.
    """
    if instance.noise is not None:
        if config.snr is not None and (instance.noise["snr"] != config.snr
                                       or instance.noise["seed"] != config.noise_seed):
            raise ConfigError(
                f"instance carries noise snr={instance.noise['snr']} "
                f"seed={instance.noise['seed']} but the config requests "
                f"snr={config.snr} seed={config.noise_seed}")
        return instance
    if config.snr is None:
        return instance
    return replace(instance,
                   data=add_poisson_noise(instance.data, config.snr, config.noise_seed),
                   meta={**instance.meta, "noise.snr": float(config.snr),
                         "noise.seed": int(config.noise_seed)})


def _prepare(config: ExperimentConfig, instance: ProblemInstance, out_dir):
    """Runner prologue: the noise-reconciled instance, the created output
    directory and the resolved config for embedding, which records the
    instance's actual noise."""
    instance = reconcile_noise(config, instance)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    flat = config.to_flat()
    flat.update({f"noise.{k}": v for k, v in (instance.noise or {}).items()})
    return instance, out, flat


def run_single(config: ExperimentConfig, instance: ProblemInstance,
               restart: int, method: str | None = None,
               model: str | None = None):
    """One seeded solve; returns (trace, summary row dict)."""
    seed = config.solver.seed + restart
    z0 = initial_guess(instance.grid.mask, seed)
    counter = TransformCounter()
    method = method or config.solver.method
    solver_cfg = replace(config.solver, method=method, seed=seed)
    spec = _objective_spec(config, instance, model)

    projection = None
    if method == "MISELL":
        projection = _projection_planes(instance)
        plan, data = projection
        _, trace = misell_iterate(z0, plan, data, instance.grid,
                                  solver_cfg.max_iters, truth=instance.truth,
                                  counter=counter)
    else:
        objective = DataMisfit(spec, counter)
        _, trace = solve(objective, solver_cfg, z0, truth=instance.truth)

    last = trace.records[-1]
    row = {
        "restart": restart,
        "seed": seed,
        "iterations": trace.iterations,
        "fft_calls": trace.fft_calls,
        "stop_reason": trace.stop_reason,
        "final_f": last.f_value,
        "final_rms": last.rms,
        "min_rms": float(np.nanmin(trace.rms_values)),
    }
    if config.morozov:
        if projection is not None:
            # the projection trace records the nonnegative modulus residual
            plan, data = projection
            level = modulus_residual(instance.truth, plan, data, instance.grid)
            floor = 0.0
        else:
            level = DataMisfit(spec).value(instance.truth)
            floor = objective_floor(spec)
        res = morozov_stop(trace.f_values, level, tau=config.morozov_tau,
                           floor=floor)
        row["morozov_index"] = res.index
        row["morozov_reached"] = res.reached
        row["morozov_rms"] = trace.records[res.index].rms
    return trace, row


def _aggregates(rows, success_rms: float) -> dict:
    """Batch summary; the cost means cover only restarts that ran (NaN if
    none did), so a failed restart cannot make a method look cheaper: it
    counts in ``failed_restarts`` and as a miss in ``success_rate``."""
    ran = [r for r in rows if not str(r["stop_reason"]).startswith("error:")]
    finals = np.array([r["final_rms"] for r in rows], dtype=float)
    finite = finals[~np.isnan(finals)]

    def mean(key):
        return float(np.mean([r[key] for r in ran])) if ran else float("nan")

    return {
        "mean_fft_calls": mean("fft_calls"),
        "mean_iterations": mean("iterations"),
        "success_rate": float(np.mean(finals < success_rms)),
        "best_rms": float(finite.min()) if finite.size else float("nan"),
        "failed_restarts": len(rows) - len(ran),
    }


def _write_json(path, payload) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def _failed_row(restart: int, seed: int, exc: Exception) -> dict:
    return {"restart": restart, "seed": seed, "iterations": 0, "fft_calls": 0,
            "stop_reason": f"error: {exc}", "final_f": float("nan"),
            "final_rms": float("nan"), "min_rms": float("nan")}


def _isolated_single(config: ExperimentConfig, instance: ProblemInstance,
                     restart: int, **which):
    """:func:`run_single`, with a failure inside the restart recorded on its
    row as ``(None, failed row)`` instead of aborting the batch.  Config
    errors still propagate."""
    try:
        return run_single(config, instance, restart, **which)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - isolate restart failures
        return None, _failed_row(restart, config.solver.seed + restart, exc)


def run_solve(config: ExperimentConfig, instance: ProblemInstance, out_dir):
    """Seeded restart batch; writes per-restart trace CSVs and summary.json.

    A failure inside one restart is recorded on its summary row and does
    not abort the batch.
    """
    instance, out, flat = _prepare(config, instance, out_dir)
    rows = []
    for i in range(config.restarts):
        trace, row = _isolated_single(config, instance, i)
        rows.append(row)
        if trace is None:
            continue
        header = dict(flat)
        header.update({"restart": i, "seed": row["seed"], "method": trace.method,
                       "stop_reason": trace.stop_reason})
        trace.to_csv(out / f"trace_restart_{i:02d}.csv", header=header)
    summary = {"config": flat, "restarts": rows,
               "aggregates": _aggregates(rows, config.success_rms)}
    _write_json(out / "summary.json", summary)
    return summary


def run_compare_methods(config: ExperimentConfig, instance: ProblemInstance,
                        out_dir):
    """SD/NCG/LBFGS/TN on identical restart seeds; reports FFT-call ordering.

    A failure inside one restart is recorded on its row and does not abort
    the comparison.
    """
    instance, out, flat = _prepare(config, instance, out_dir)
    table = []
    for method in COMPARE_METHODS:
        rows = [_isolated_single(config, instance, i, method=method)[1]
                for i in range(config.restarts)]
        entry = {"method": method}
        entry.update(_aggregates(rows, config.success_rms))
        entry["restarts"] = rows
        table.append(entry)
    fft = {e["method"]: e["mean_fft_calls"] for e in table}
    orderings = {
        "lbfgs_lt_ncg": fft["LBFGS"] < fft["NCG"],
        "ncg_lt_sd": fft["NCG"] < fft["SD"],
        "lbfgs_lt_tn": fft["LBFGS"] < fft["TN"],
    }
    with atomic_open(out / "compare_methods.csv") as fh:
        fh.write(key_value_lines(flat, "# "))
        fh.write("method,mean_fft_calls,mean_iterations,success_rate\n")
        for e in table:
            fh.write(f"{e['method']},{e['mean_fft_calls']:.17g},"
                     f"{e['mean_iterations']:.17g},{e['success_rate']:.17g}\n")
    payload = {"config": flat, "methods": table,
               "fft_orderings": orderings}
    _write_json(out / "compare_methods.json", payload)
    return payload


def iterations_to_rms(trace: RunTrace, threshold: float):
    """First iteration index whose RMS drops below ``threshold`` (None if never)."""
    for rec in trace.records:
        if rec.rms < threshold:
            return rec.iteration
    return None


def run_compare_models(config: ExperimentConfig, instance: ProblemInstance,
                       out_dir, rms_target: float = 1e-3):
    """MLP/LS/LSI under the configured solver with shared restart seeds.

    Each model's per-restart summary rows are kept under ``restarts``; a
    failure inside one restart is recorded on its row and does not abort
    the comparison.
    """
    instance, out, flat = _prepare(config, instance, out_dir)
    series_lines = []
    per_model = {}
    for model in MODELS:
        reached = []
        rows = []
        for i in range(config.restarts):
            trace, row = _isolated_single(config, instance, i, model=model)
            rows.append(row)
            if trace is None:
                reached.append(None)
                continue
            for rec in trace.records:
                series_lines.append(
                    f"{model},{i},{rec.iteration},{rec.rms:.17g},{rec.f_value:.17g}")
            reached.append(iterations_to_rms(trace, rms_target))
        per_model[model] = {
            "iterations_to_target": reached,
            "n_reached": sum(1 for r in reached if r is not None),
            "restarts": rows,
        }
    with atomic_open(out / "compare_models.csv") as fh:
        fh.write(key_value_lines(flat, "# "))
        fh.write("model,restart,iter,rms,f\n")
        fh.write("\n".join(series_lines) + "\n")
    payload = {"config": flat, "rms_target": rms_target,
               "models": per_model}
    _write_json(out / "compare_models.json", payload)
    return payload


def run_analyze_hessian(config: ExperimentConfig, instance: ProblemInstance,
                        point: str, out_dir):
    """Closed-form vs dense spectra and the clustering report at one point."""
    instance, out, flat = _prepare(config, instance, out_dir)
    if point == "truth":
        u = instance.truth
    elif point == "random":
        u = initial_guess(instance.grid.mask, config.solver.seed)
    else:
        p = Path(point)
        if not p.exists():
            raise ConfigError(f"analysis point file not found: {p}")
        u = load_field(p)
    planes = []
    try:
        for plane, intensity in zip(instance.plan, instance.data.intensities):
            U = plane_matrix(plane, instance.grid)
            models = {}
            for model in MODELS:
                report = closed_form_spectrum(model, u, plane, instance.grid,
                                              intensity, config.epsilon)
                r, c = hessian_diagonals(model, u, plane, instance.grid,
                                         intensity, config.epsilon)
                dense = np.sort(np.linalg.eigvalsh(dense_hessian(r, c, U)))
                entry = report.to_dict()
                entry["dense_max_deviation"] = float(
                    np.abs(report.eigenvalues - dense).max())
                models[model] = entry
            clustering = clustering_comparison(u, plane, instance.grid,
                                               intensity, config.epsilon)
            planes.append({
                "plane": plane.kind if plane.kind != DEFOCUS
                else f"defocus {plane.defocus_waves:g}",
                "models": models,
                "clustering": clustering.to_dict(),
            })
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"config": flat, "point": str(point),
               "planes": planes}
    _write_json(out / "hessian_analysis.json", payload)
    return payload


def simulate(config: ExperimentConfig, out_dir) -> ProblemInstance:
    """Build the configured instance and write it to ``out_dir``."""
    instance = build_instance(config)
    save_instance(instance, out_dir)
    return instance
