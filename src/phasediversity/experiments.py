"""Experiment configuration and batch runners behind the CLI.

Configuration lives in flat namespaced key/value text::

    problem.type = zernike
    problem.n = 32
    solver.method = LBFGS
    restarts = 10  # seeds solver.seed .. solver.seed + 9

A ``#`` at the start of a line or after whitespace starts a comment, in a
``--config`` file and an instance's ``config.txt`` alike (both read by
``fields.read_key_values``).  ``--set key=value`` overrides use the same
keys.  The ordered key table ``_KEYS`` (flat key -> attribute, parser)
drives both parsing and :meth:`ExperimentConfig.to_flat`;
``problem.<name>`` parameters take the types of ``PROBLEM_DEFAULTS``,
and an unset value is written ``none``.
Every output file embeds the fully resolved configuration (a CSV in its
header, a JSON under ``config``), so artifacts are self-describing.
Restart seeds are ``solver.seed + restart_index``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .fields import (atomic_open, format_floats, load_field, parse_bool,
                     parse_floats, read_key_values, write_csv)
from .forward import diversity_forward
from .hessian import (
    clustering_comparison,
    closed_form_spectrum,
    dense_hessian,
    plane_matrix,
)
from .objectives import (
    DEFAULT_EPSILON,
    MODELS,
    DataMisfit,
    ObjectiveSpec,
    hessian_diagonals,
    objective_floor,
)
from .optimizers import (
    LINE_SEARCH_METHODS,
    RunTrace,
    SolverConfig,
    _defocus_amplitudes,
    misell_iterate,
    modulus_residual,
    solve,
)
from .problems import (
    DEFAULT_MOROZOV_TAU,
    DEFAULT_PLAN,
    PROBLEM_DEFAULTS,
    ProblemInstance,
    _check_instance,
    add_poisson_noise,
    build_problem,
    morozov_stop,
)

__all__ = [
    "ConfigError",
    "config_errors",
    "ExperimentConfig",
    "config_from_sources",
    "initial_guess",
    "build_instance",
    "reconcile_noise",
    "run_solve",
    "run_compare_methods",
    "run_compare_models",
    "run_analyze_hessian",
    "iterations_to_rms",
]

_RMS_TARGET = 1e-3  # compare-models counts iterations to reach this RMS


class ConfigError(ValueError):
    """Invalid configuration key or value; maps to CLI exit code 2."""


@contextmanager
def config_errors(prefix: str = ""):
    """Turn a ValueError raised in the block into a ConfigError whose message
    is ``prefix`` and the original's, chained from it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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
    defocus: tuple = DEFAULT_PLAN.defocus
    amplitude_plane: bool = DEFAULT_PLAN.amplitude_plane
    model: str = "LS"
    epsilon: float = DEFAULT_EPSILON
    solver: SolverConfig = field(default_factory=SolverConfig)
    restarts: int = 10
    snr: float | None = None
    noise_seed: int = 0
    morozov: bool = False
    morozov_tau: float = DEFAULT_MOROZOV_TAU
    success_rms: float = 1e-5
    output_dir: str | None = None
    # flat keys the sources set; only these are checked against an instance
    given: frozenset = field(default=frozenset(), compare=False, repr=False)

    def __post_init__(self):
        with config_errors():
            _check_instance(self.problem_type, self.problem_params, self.n,
                            self.problem_seed, self.snr, self.noise_seed)
        if self.model not in MODELS:
            raise ConfigError(f"objective.model must be one of {MODELS}, "
                              f"got {self.model!r}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        for key, value in (("morozov.tau", self.morozov_tau),
                           ("summary.success_rms", self.success_rms)):
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be a finite number > 0, "
                                  f"got {value}")
        # a CSV header gives each key one line
        if len((self.output_dir or "").splitlines()) > 1:
            raise ConfigError(f"output_dir must be one line, "
                              f"got {self.output_dir!r}")

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
                value = format_floats(value)
            flat[key] = value
            if key == "problem.seed":
                flat.update({f"problem.{k}": v for k, v in sorted(params.items())})
        return flat


# flat key -> (attribute, parser); "solver.x" names SolverConfig.x
_KEYS = {
    "problem.type": ("problem_type", str),
    "problem.n": ("n", int),
    "problem.seed": ("problem_seed", int),
    "plan.defocus": ("defocus", parse_floats),
    "plan.amplitude_plane": ("amplitude_plane", parse_bool),
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
    "morozov.enabled": ("morozov", parse_bool),
    "morozov.tau": ("morozov_tau", float),
    "summary.success_rms": ("success_rms", float),
    "output_dir": ("output_dir", _optional(str)),
}

# problem.<name> parsers, from the types of the generator defaults
_PARAM_TYPES = {name: type(value) for defaults in PROBLEM_DEFAULTS.values()
                for name, value in defaults.items()}


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
    with config_errors():
        return ExperimentConfig(problem_params=parts["params"],
                                solver=SolverConfig(**parts["solver"]),
                                given=frozenset(mapping), **parts[""])


def config_from_sources(path=None, overrides=()) -> ExperimentConfig:
    """Build a config from an optional file, read as ``config.txt`` is,
    plus --set style overrides."""
    with config_errors():
        mapping = {} if path is None else read_key_values(path)
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
    with config_errors():
        return reconcile_noise(config, build_problem(
            config.problem_type, config.n, seed=config.problem_seed,
            defocus=config.defocus, amplitude_plane=config.amplitude_plane,
            **config.problem_params))


def _objective_spec(config: ExperimentConfig,
                    instance: ProblemInstance) -> ObjectiveSpec:
    return ObjectiveSpec(config.model, config.epsilon,
                         instance.plan, instance.data, instance.grid)


def reconcile_noise(config: ExperimentConfig,
                    instance: ProblemInstance) -> ProblemInstance:
    """``instance`` with the config's photon noise added to its data, the
    one place noise is drawn.  Unchanged if the config sets no
    ``noise.snr`` or the data already carry noise (``noise.snr`` in the
    meta); ``_prepare`` checks that the config agrees with the instance."""
    if config.snr is None or "noise.snr" in instance.meta:
        return instance
    with config_errors(f"noise.snr = {config.snr}: "):
        data = add_poisson_noise(instance.data, config.snr, config.noise_seed)
    return replace(instance, data=data,
                   meta={**instance.meta, "noise.snr": float(config.snr),
                         "noise.seed": int(config.noise_seed)})


# flat-key prefixes that describe the instance; artifacts read them from its meta
_INSTANCE = ("problem.", "plan.", "noise.")


def _prepare(config: ExperimentConfig, instance: ProblemInstance, out_dir):
    """Runner prologue, run once per batch: the instance with the config's
    noise added, the created output directory and the config to embed.

    A bad value (noise, epsilon) is a ConfigError raised before the output
    directory exists.  The embedded config takes the instance's meta, its
    ``problem.*``, ``plan.*`` and ``noise.*`` keys; any of them the config
    sets must agree.
    """
    with config_errors():
        instance = reconcile_noise(config, instance)
        _objective_spec(config, instance)
    wants = config.to_flat()
    own = {k: str(v) for k, v in wants.items() if not k.startswith(_INSTANCE)}
    meta = {k: str(v) for k, v in instance.meta.items()}
    flat = config_from_mapping({**own, **meta}).to_flat()
    for key in sorted(config.given):
        if key.startswith(_INSTANCE) and flat.get(key) != wants[key]:
            raise ConfigError(f"instance has {key} = {flat.get(key, 'none')} "
                              f"but the config sets {wants[key]}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return instance, out, flat


def _restart_row(restart: int, seed: int, trace: RunTrace) -> dict:
    """One restart's summary row; the empty trace of a failed restart gives
    0 iterations and FFT calls and NaN values."""
    last = trace.records[-1] if trace.records else None
    return {
        "restart": restart,
        "seed": seed,
        "iterations": trace.iterations,
        "fft_calls": trace.fft_calls,
        "stop_reason": trace.stop_reason,
        "final_f": last.f_value if last else np.nan,
        "final_rms": last.rms if last else np.nan,
        "min_rms": float(np.nanmin(trace.rms_values)) if last else np.nan,
    }


def run_single(config: ExperimentConfig, instance: ProblemInstance,
               restart: int):
    """One seeded solve of ``config.model`` by ``config.solver.method``;
    returns (trace, summary row dict)."""
    seed = config.solver.seed + restart
    z0 = initial_guess(instance.grid.mask, seed)
    spec = _objective_spec(config, instance)

    misell = config.solver.method == "MISELL"
    if misell:
        _, trace = misell_iterate(z0, instance.plan, instance.data, instance.grid,
                                  config.solver.max_iters, truth=instance.truth)
    else:
        obj = DataMisfit(spec)
        _, trace = solve(obj, config.solver, z0, truth=instance.truth)

    row = _restart_row(restart, seed, trace)
    if config.morozov:
        if misell:
            # the projection trace records the nonnegative modulus residual
            level = modulus_residual(instance.truth, instance.plan,
                                     instance.data, instance.grid)
            floor = 0.0
        else:
            level = obj.value(instance.truth)
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


def _restarts(config: ExperimentConfig, instance: ProblemInstance):
    """``(trace, row)`` of every restart of the batch.  A failure inside one
    restart gives an empty trace whose stop reason records it, and does not
    abort the batch; ``_prepare`` raises every config error before the
    first restart."""
    results = []
    for i in range(config.restarts):
        try:
            results.append(run_single(config, instance, i))
        except Exception as exc:  # noqa: BLE001 - isolate restart failures
            failed = RunTrace(stop_reason=f"error: {exc}")
            results.append((failed, _restart_row(i, config.solver.seed + i, failed)))
    return results


def run_solve(config: ExperimentConfig, instance: ProblemInstance, out_dir):
    """Seeded restart batch; writes per-restart trace CSVs and summary.json.

    A failure inside one restart is recorded on its summary row and does
    not abort the batch.  MISELL needs two defocus planes.
    """
    if config.solver.method == "MISELL":
        with config_errors():
            _defocus_amplitudes(instance.plan, instance.data)
    instance, out, flat = _prepare(config, instance, out_dir)
    results = _restarts(config, instance)
    for trace, row in results:
        if trace.records:
            header = {**flat, "restart": row["restart"], "seed": row["seed"],
                      "method": config.solver.method,
                      "stop_reason": trace.stop_reason}
            trace.to_csv(out / f"trace_restart_{row['restart']:02d}.csv", header)
    rows = [row for _, row in results]
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
    for method in LINE_SEARCH_METHODS:
        batch = replace(config, solver=replace(config.solver, method=method))
        rows = [row for _, row in _restarts(batch, instance)]
        table.append({"method": method, **_aggregates(rows, config.success_rms),
                      "restarts": rows})
    fft = {e["method"]: e["mean_fft_calls"] for e in table}
    orderings = {
        "lbfgs_lt_ncg": fft["LBFGS"] < fft["NCG"],
        "ncg_lt_sd": fft["NCG"] < fft["SD"],
        "lbfgs_lt_tn": fft["LBFGS"] < fft["TN"],
    }
    columns = ("method", "mean_fft_calls", "mean_iterations", "success_rate")
    write_csv(out / "compare_methods.csv", [[e[c] for c in columns] for e in table],
              flat, columns)
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
                       out_dir):
    """MLP/LS/LSI under the configured solver with shared restart seeds.

    Each model's per-restart summary rows are kept under ``restarts``; a
    failure inside one restart is recorded on its row and does not abort
    the comparison.  MISELL, which fits no misfit model, is refused.
    """
    if config.solver.method == "MISELL":
        raise ConfigError("compare-models compares misfit models; "
                          "solver.method MISELL fits none")
    instance, out, flat = _prepare(config, instance, out_dir)
    series = []
    per_model = {}
    for model in MODELS:
        results = _restarts(replace(config, model=model), instance)
        series += [(model, row["restart"], rec.iteration, rec.rms, rec.f_value)
                   for trace, row in results for rec in trace.records]
        reached = [iterations_to_rms(trace, _RMS_TARGET) for trace, _ in results]
        per_model[model] = {
            "iterations_to_target": reached,
            "n_reached": sum(1 for r in reached if r is not None),
            "restarts": [row for _, row in results],
        }
    write_csv(out / "compare_models.csv", series, flat,
              ("model", "restart", "iter", "rms", "f"))
    payload = {"config": flat, "rms_target": _RMS_TARGET,
               "models": per_model}
    _write_json(out / "compare_models.json", payload)
    return payload


def run_analyze_hessian(config: ExperimentConfig, instance: ProblemInstance,
                        point: str, out_dir):
    """Closed-form vs dense spectra and the clustering report at one point.

    A bad point or an instance too large for the dense plane matrices is a
    ConfigError, with the reader's or the size limit's own message, raised
    before the output directory exists."""
    with config_errors():
        if point == "truth":
            u = instance.truth
        elif point == "random":
            u = initial_guess(instance.grid.mask, config.solver.seed)
        else:
            u = load_field(point, instance.grid.mask.shape)
        matrices = [plane_matrix(plane, instance.grid) for plane in instance.plan]
    instance, out, flat = _prepare(config, instance, out_dir)
    planes = []
    data = instance.data
    for plane, intensity, amplitude, U in zip(instance.plan, data.intensities,
                                              data.amplitudes, matrices):
        models = {}
        Fu = diversity_forward(u, plane, instance.grid)
        for model in MODELS:
            report = closed_form_spectrum(model, Fu, intensity, config.epsilon)
            r, c = hessian_diagonals(model, Fu, intensity, amplitude,
                                     config.epsilon)
            dense = np.sort(np.linalg.eigvalsh(dense_hessian(r, c, U)))
            entry = report.to_dict()
            entry["dense_max_deviation"] = float(
                np.abs(report.eigenvalues - dense).max())
            models[model] = entry
        clustering = clustering_comparison(Fu, intensity, config.epsilon)
        planes.append({
            "plane": "amplitude" if plane is None
            else f"defocus {format_floats([plane])}",
            "models": models,
            "clustering": asdict(clustering),
        })
    payload = {"config": flat, "point": str(point), "planes": planes}
    _write_json(out / "hessian_analysis.json", payload)
    return payload

