"""Synthetic retrieval problems: pupils, wavefronts, measurements, noise.

Ground-truth wavefronts have unit amplitude inside the pupil mask and
zero outside; phases are expressed in waves.  All generators are
deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import (atomic_open, field_from_csv, field_to_csv, format_floats,
                     key_value_lines, load_field, parse_bool, parse_floats,
                     read_key_values, save_field)
from .forward import DiversityPlan, PupilGrid, diversity_forward
from .objectives import MeasurementSet

__all__ = [
    "annular_pupil",
    "noll_to_nm",
    "zernike_circle",
    "zernike_annular_basis",
    "zernike_annular_phase",
    "von_karman_screen",
    "segmented_membership",
    "segmented_pupil",
    "simulate_measurements",
    "add_poisson_noise",
    "MorozovResult",
    "morozov_stop",
    "phase_to_wavefront",
    "ProblemInstance",
    "PROBLEM_DEFAULTS",
    "build_problem",
    "save_instance",
    "load_instance",
    "PROBLEM_TYPES",
]

PROBLEM_TYPES = ("zernike", "vonkarman", "segmented")

# Pupil radii below 0.5 oversample the diffraction images, which keeps the
# benchmark problems well conditioned at desk-scale grids.
PROBLEM_DEFAULTS = {
    "zernike": {"r_inner": 0.12, "r_outer": 0.3, "zernike_index": 13,
                "zernike_coeff": 0.1},
    "vonkarman": {"r_inner": 0.0, "r_outer": 0.3, "target_rms": 0.19,
                  "outer_scale": 2.0, "r0": 0.1},
    "segmented": {"rings": 2, "gap_frac": 0.1, "outer_radius": 0.3,
                  "target_rms": 0.21, "outer_scale": 2.0, "r0": 0.1},
}
_VONKARMAN = PROBLEM_DEFAULTS["vonkarman"]
_SEGMENTED = PROBLEM_DEFAULTS["segmented"]
# the config's defaults too: the benchmark plan (the pupil, then defocus -3
# and +3 waves) and the discrepancy principle's safety factor
DEFAULT_PLAN = DiversityPlan((-3.0, 3.0), True)
DEFAULT_MOROZOV_TAU = 1.05

# name -> (rule over the parameters, what it asks); a parameter without a
# rule need only be finite
_PARAM_RULES = {
    "r_outer": (lambda p: 0.0 < p["r_outer"] <= 0.5, "lie in (0, 0.5]"),
    "r_inner": (lambda p: 0.0 <= p["r_inner"] < p["r_outer"],
                "lie in [0, r_outer)"),
    "zernike_index": (lambda p: p["zernike_index"] >= 1, "be >= 1"),
    "r0": (lambda p: p["r0"] > 0, "be > 0"),
    "outer_scale": (lambda p: p["outer_scale"] > 0, "be > 0"),
    "rings": (lambda p: p["rings"] >= 0, "be >= 0"),
    "gap_frac": (lambda p: 0.0 <= p["gap_frac"] < 1.0, "lie in [0, 1)"),
    "outer_radius": (lambda p: 0.0 < p["outer_radius"] <= 0.5,
                     "lie in (0, 0.5]"),
}


def _check_params(params: dict) -> None:
    """Raise a ValueError naming ``problem.<name>`` for the first generator
    parameter in ``params`` that is not finite or breaks its rule.  The
    generators and :func:`_check_instance` check through here."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"problem.{name} must be finite, got {value}")
    for name, (holds, wants) in _PARAM_RULES.items():
        if name in params and not holds(params):
            raise ValueError(f"problem.{name} must {wants}, got {params[name]}")


def _check_instance(ptype: str, params: dict, seed: int, snr=None,
                    noise_seed=None) -> dict:
    """The defaults of a ``ptype`` instance updated by ``params``, checked
    with its seeds and SNR; a ValueError names the first key at fault.  The
    config, :func:`build_problem` and :func:`load_instance` check here."""
    if ptype not in PROBLEM_DEFAULTS:
        raise ValueError(f"problem.type must be one of {PROBLEM_TYPES}, "
                         f"got {ptype!r}")
    unknown = set(params) - set(PROBLEM_DEFAULTS[ptype])
    if unknown:
        raise ValueError(f"unknown problem.{ptype} parameter(s): "
                         f"{', '.join(sorted(unknown))}")
    opts = {**PROBLEM_DEFAULTS[ptype], **params}
    _check_params(opts)
    for key, value in (("problem.seed", seed), ("noise.seed", noise_seed)):
        if value is not None and value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
    if snr is not None and not (np.isfinite(snr) and snr > 0):
        raise ValueError(f"noise.snr must be a finite number > 0, got {snr}")
    return opts


def annular_pupil(n: int, r_inner: float, r_outer: float) -> PupilGrid:
    """Annular mask r_inner <= r < r_outer on the centered lattice.

    A disc is the r_inner = 0 case.  Radii live in [0, 0.5] (half the
    grid width); r_inner must be strictly below r_outer.
    """
    _check_params({"r_inner": r_inner, "r_outer": r_outer})
    x, y = PupilGrid.coordinates(n)
    r = np.sqrt(x * x + y * y)
    return PupilGrid(n, (r >= r_inner) & (r < r_outer))


def noll_to_nm(j: int):
    """Map a 1-based Noll index to radial degree n and azimuthal order m."""
    if j < 1:
        raise ValueError("Noll indices start at 1")
    n = 0
    j1 = j - 1
    while j1 > n:
        n += 1
        j1 -= n
    m = (-1) ** j * ((n % 2) + 2 * ((j1 + ((n + 1) % 2)) // 2))
    return n, m


def zernike_circle(j: int, rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Unnormalized circle Zernike polynomial for Noll index ``j``."""
    n, m = noll_to_nm(j)
    am = abs(m)
    radial = np.zeros_like(rho)
    for k in range((n - am) // 2 + 1):
        coef = ((-1) ** k * math.factorial(n - k)
                / (math.factorial(k)
                   * math.factorial((n + am) // 2 - k)
                   * math.factorial((n - am) // 2 - k)))
        radial += coef * rho ** (n - 2 * k)
    if m > 0:
        return radial * np.cos(am * theta)
    if m < 0:
        return radial * np.sin(am * theta)
    return radial


def zernike_annular_basis(grid: PupilGrid, count: int) -> np.ndarray:
    """First ``count`` basis modes orthonormalized over the masked pixels.

    Standard circle Zernikes (Noll order) restricted to the mask are
    Gram-Schmidt orthonormalized in the discrete inner product
    <a, b> = mean over mask of a*b, so each mode has unit RMS on the
    mask.  Returns an array of shape (count, n, n), zero outside the mask.
    Each mean is ``np.add.reduce(a * b) / npix``, the sum and division
    ``np.mean`` makes, without its per-call wrapper.
    """
    mask = grid.mask
    npix = int(mask.sum())
    if npix == 0:
        raise ValueError("empty pupil mask")
    if count > npix:
        raise ValueError(f"requested {count} modes from a {npix}-pixel mask")
    x, y = grid.xy
    r = np.sqrt(x * x + y * y)
    r_max = r[mask].max()
    rho = (r / r_max)[mask]
    theta = np.arctan2(y, x)[mask]

    basis = []
    for j in range(1, count + 1):
        v = zernike_circle(j, rho, theta)
        for _ in range(2):  # re-orthogonalize for 1e-10 level orthonormality
            for b in basis:
                v = v - np.add.reduce(b * v) / npix * b
        nrm = math.sqrt(float(np.add.reduce(v * v) / npix))
        if nrm < 1e-12:
            raise ValueError(f"mask cannot support mode {j} (rank deficient)")
        basis.append(v / nrm)

    out = np.zeros((count, grid.n, grid.n))
    for j, b in enumerate(basis):
        out[j][mask] = b
    return out


def zernike_annular_phase(grid: PupilGrid, index: int, coeff: float) -> np.ndarray:
    """Phase field (waves) coeff * mode ``index``; RMS over the mask = |coeff|."""
    _check_params({"zernike_index": index})
    basis = zernike_annular_basis(grid, index)
    return coeff * basis[index - 1]


def von_karman_screen(grid: PupilGrid, r0: float = _VONKARMAN["r0"],
                      outer_scale: float = _VONKARMAN["outer_scale"], seed: int = 0,
                      target_rms: float = _VONKARMAN["target_rms"]) -> np.ndarray:
    """Turbulence-style phase screen (waves) via the spectral method.

    Complex white Gaussian noise is shaped by sqrt(PSD) with
    PSD(k) ~ r0^(-5/3) (k^2 + 1/L0^2)^(-11/6) (k in cycles per grid
    width, L0 = ``outer_scale`` grid widths), inverse transformed, and
    the real part kept.  The screen is returned on the full grid,
    mean-removed and rescaled so the RMS over the mask equals
    ``target_rms``.
    """
    _check_params({"r0": r0, "outer_scale": outer_scale})
    n = grid.n
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="xy")
    psd = r0 ** (-5.0 / 3.0) * (kx * kx + ky * ky + outer_scale ** -2.0) ** (-11.0 / 6.0)
    amp = np.sqrt(psd)
    amp[0, 0] = 0.0  # piston carries no information
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    screen = np.real(np.fft.ifft2(noise * amp))

    mask = grid.mask
    if not mask.any():
        raise ValueError("empty pupil mask")
    screen = screen - screen[mask].mean()
    rms = math.sqrt(float(np.mean(screen[mask] ** 2)))
    if rms == 0.0:
        raise ValueError("degenerate screen (zero variance on mask)")
    return screen * (target_rms / rms)


def _hex_ring_offsets(rings: int):
    """Axial (q, r) offsets for rings 1..rings (center excluded)."""
    cells = []
    for q in range(-rings, rings + 1):
        for r in range(-rings, rings + 1):
            dist = (abs(q) + abs(r) + abs(q + r)) // 2
            if 1 <= dist <= rings:
                cells.append((q, r))
    return cells


def segmented_membership(x: np.ndarray, y: np.ndarray,
                         rings: int = _SEGMENTED["rings"],
                         gap_frac: float = _SEGMENTED["gap_frac"],
                         outer_radius: float = _SEGMENTED["outer_radius"]
                         ) -> np.ndarray:
    """Point-in-aperture test for the hexagonally segmented pupil.

    ``rings = 0`` is a single central hexagon; for ``rings >= 1`` the
    central segment is absent and rings 1..rings are present (rings = 2
    gives the 18-segment layout).  Adjacent segment edges are separated
    by ``gap_frac`` of the center pitch.  The aperture is scaled to fit
    inside ``outer_radius``.
    """
    _check_params({"rings": rings, "gap_frac": gap_frac,
                   "outer_radius": outer_radius})
    pitch = outer_radius / (rings + (1.0 - gap_frac) / math.sqrt(3.0))
    apothem = pitch * (1.0 - gap_frac) / 2.0
    if rings == 0:
        offsets = [(0, 0)]
    else:
        offsets = _hex_ring_offsets(rings)
    # axial basis for edge-sharing neighbors at distance = pitch
    e1 = (1.0, 0.0)
    e2 = (0.5, math.sqrt(3.0) / 2.0)
    normals = [(math.cos(t), math.sin(t))
               for t in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)]
    out = np.zeros(np.shape(x), dtype=bool)
    for q, r in offsets:
        cx = pitch * (q * e1[0] + r * e2[0])
        cy = pitch * (q * e1[1] + r * e2[1])
        dx = x - cx
        dy = y - cy
        inside = np.ones(np.shape(x), dtype=bool)
        for nx_, ny_ in normals:
            inside &= np.abs(dx * nx_ + dy * ny_) <= apothem
        out |= inside
    return out


def segmented_pupil(n: int, rings: int = _SEGMENTED["rings"],
                    gap_frac: float = _SEGMENTED["gap_frac"],
                    outer_radius: float = _SEGMENTED["outer_radius"]
                    ) -> PupilGrid:
    """Hexagonally segmented pupil mask on the centered lattice."""
    x, y = PupilGrid.coordinates(n)
    return PupilGrid(n, segmented_membership(x, y, rings, gap_frac, outer_radius))


def simulate_measurements(truth: np.ndarray, plan: DiversityPlan,
                          grid: PupilGrid) -> MeasurementSet:
    """Noiseless per-plane intensities predicted from the true wavefront."""
    return MeasurementSet(
        [np.abs(diversity_forward(truth, plane, grid)) ** 2 for plane in plan])


# numpy's Generator.poisson rejects rates above int64 max - 10 sqrt(int64 max)
_POISSON_RATE_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def add_poisson_noise(data: MeasurementSet, snr: float, seed: int = 0) -> MeasurementSet:
    """Poisson photon noise calibrated per plane to the requested SNR.

    The photon scale s solves ||s I||_2 / sqrt(sum s I) = snr (expected
    noise norm of Poisson counts), counts are drawn at rate s*I and
    returned as counts/s, so the realized relative error is ~ 1/snr.  An
    snr whose largest rate s max(I) is not in (0, ``_POISSON_RATE_MAX``]
    is rejected before any count is drawn.
    """
    if not snr > 0:
        raise ValueError("snr must be positive")
    rng = np.random.default_rng(seed)
    noisy = []
    for intensity in data.intensities:
        total = float(intensity.sum())
        l2sq = float(np.sum(intensity ** 2))
        if total == 0.0 or l2sq == 0.0:
            noisy.append(intensity.copy())
            continue
        scale = snr * snr * total / l2sq
        rate = scale * float(intensity.max())
        if not 0 < rate <= _POISSON_RATE_MAX:
            raise ValueError(f"photon rate {rate:.4g} is outside numpy's "
                             f"Poisson range (0, {_POISSON_RATE_MAX:.4g}]")
        counts = rng.poisson(scale * intensity)
        noisy.append(counts / scale)
    return MeasurementSet(noisy)


@dataclass(frozen=True)
class MorozovResult:
    index: int
    reached: bool


def morozov_stop(f_values, noise_misfit_level: float,
                 tau: float = DEFAULT_MOROZOV_TAU, floor: float = 0.0
                 ) -> MorozovResult:
    """First index of ``f_values`` (a run's per-iteration misfits) at or
    below the discrepancy threshold.

    The threshold is floor + tau*(level - floor); with the default
    floor = 0 this is the plain tau*level rule.  Objectives that are
    bounded below by a data-dependent negative constant (the amplitude
    least-squares misfit) pass that constant as ``floor`` so the tau
    safety margin applies to the nonnegative discrepancy part.  If the
    threshold is never reached the last iteration is returned with
    ``reached = False``.
    """
    if len(f_values) == 0:
        raise ValueError("morozov_stop needs a nonempty trace")
    if noise_misfit_level < floor:
        raise ValueError("noise misfit level lies below the objective floor")
    threshold = floor + tau * (noise_misfit_level - floor)
    for i, v in enumerate(f_values):
        if v <= threshold:
            return MorozovResult(i, True)
    return MorozovResult(len(f_values) - 1, False)


def phase_to_wavefront(phase_waves: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Unit-amplitude wavefront exp(i 2 pi phase) inside the mask, 0 outside."""
    u = np.exp(2j * np.pi * np.asarray(phase_waves, dtype=float))
    return np.where(np.asarray(mask, dtype=bool), u, 0.0 + 0.0j)


@dataclass
class ProblemInstance:
    """A complete synthetic retrieval problem plus its provenance."""

    grid: PupilGrid
    truth: np.ndarray
    plan: DiversityPlan
    data: MeasurementSet
    meta: dict = field(default_factory=dict)


def build_problem(ptype: str, n: int, seed: int = 0, defocus=DEFAULT_PLAN.defocus,
                  amplitude_plane: bool = DEFAULT_PLAN.amplitude_plane,
                  **params) -> ProblemInstance:
    """Construct a pupil, ground-truth wavefront and its noiseless data.

    ``ptype`` is ``zernike`` (annulus pupil, single basis mode),
    ``vonkarman`` (disc pupil, turbulence screen) or ``segmented``
    (hexagonal segments, turbulence screen).  Unknown keyword parameters
    are rejected so config typos fail loudly.
    """
    opts = _check_instance(ptype, params, seed)

    if ptype == "segmented":
        grid = segmented_pupil(n, opts["rings"], opts["gap_frac"],
                               opts["outer_radius"])
    else:
        grid = annular_pupil(n, opts["r_inner"], opts["r_outer"])
    if ptype == "zernike":
        phase = zernike_annular_phase(grid, opts["zernike_index"],
                                      opts["zernike_coeff"])
    else:
        phase = von_karman_screen(grid, opts["r0"], opts["outer_scale"],
                                  seed=seed, target_rms=opts["target_rms"])

    truth = phase_to_wavefront(phase, grid.mask)
    plan = DiversityPlan(defocus, amplitude_plane)
    data = simulate_measurements(truth, plan, grid)

    meta = {"problem.type": ptype, "problem.n": n, "problem.seed": seed}
    meta.update({f"problem.{k}": v for k, v in sorted(opts.items())})
    meta["plan.defocus"] = format_floats(defocus)
    meta["plan.amplitude_plane"] = amplitude_plane
    return ProblemInstance(grid, truth, plan, data, meta)


# ---------------------------------------------------------------------------
# Instance directory layout: config.txt, truth.npy, plane_XX.csv
# ---------------------------------------------------------------------------

def _plane_files(path: Path, count: int):
    """The files of planes 0..count-1 in ``path``, and its other
    ``plane_*.csv`` files."""
    planes = [path / f"plane_{m:02d}.csv" for m in range(count)]
    return planes, sorted(set(path.glob("plane_*.csv")).difference(planes))


def save_instance(instance: ProblemInstance, path) -> None:
    """Write the instance to ``path``, removing plane files that an earlier
    instance with more planes left there."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    with atomic_open(path / "config.txt") as fh:
        fh.write(key_value_lines(instance.meta))
    save_field(path / "truth.npy", instance.truth)
    planes, stale = _plane_files(path, len(instance.plan))
    for file, intensity in zip(planes, instance.data.intensities):
        field_to_csv(file, intensity, header=instance.meta)
    for file in stale:
        file.unlink()


# the plan.* and noise.* keys an instance's config.txt may hold
_PLAN_NOISE_KEYS = ("plan.defocus", "plan.amplitude_plane", "noise.snr",
                    "noise.seed")


def load_instance(path) -> ProblemInstance:
    """Read a :func:`save_instance` directory.  A ValueError names the file
    at fault: a ``config.txt`` without a key that :func:`save_instance` writes,
    with a ``problem.*``, ``plan.*`` or ``noise.*`` key it never writes, or
    with a bad value (parsed as the config parses it and checked by the
    config's rules), a truth or plane file not a finite n x n grid (a plane
    also >= 0), a truth without a pupil pixel (|value| > 0.5), or a
    ``plane_*.csv`` the plan does not name."""
    path = Path(path)
    config = path / "config.txt"
    meta = read_key_values(config)

    def value(key, parse=str):
        if key not in meta:
            raise ValueError(f"{config} has no {key} line")
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise ValueError(f"{config}: bad {key}: {exc}") from exc

    ptype = value("problem.type")
    n = value("problem.n", int)
    seed = value("problem.seed", int)
    # an unknown type has no parameters to read; the check names it, and
    # any parameter the type does not take
    params = {name: value(f"problem.{name}", type(default))
              for name, default in PROBLEM_DEFAULTS.get(ptype, {}).items()}
    params.update({key[8:]: meta[key] for key in meta
                   if key.startswith("problem.") and key[8:] not in params
                   and key not in ("problem.type", "problem.n", "problem.seed")})
    for key in meta:
        if key.startswith(("plan.", "noise.")) and key not in _PLAN_NOISE_KEYS:
            raise ValueError(f"{config}: unknown key {key!r}")
    noise = ((value("noise.snr", float), value("noise.seed", int))
             if "noise.snr" in meta or "noise.seed" in meta else ())
    try:
        _check_instance(ptype, params, seed, *noise)
    except ValueError as exc:
        raise ValueError(f"{config}: {exc}") from exc
    amplitude_plane = value("plan.amplitude_plane", parse_bool)
    plan = value("plan.defocus",
                 lambda text: DiversityPlan(parse_floats(text), amplitude_plane))
    truth = load_field(path / "truth.npy", (n, n))
    grid = PupilGrid(n, np.abs(truth) > 0.5)
    if not grid.mask.any():
        raise ValueError(f"{path / 'truth.npy'} has no pupil pixel "
                         f"(no entry with |value| > 0.5)")
    planes, stray = _plane_files(path, len(plan))
    if stray:
        raise ValueError(f"{stray[0]} is not one of the {len(plan)} planes "
                         f"of the plan in config.txt")
    data = MeasurementSet([field_from_csv(file, (n, n)) for file in planes],
                          names=planes)
    return ProblemInstance(grid, truth, plan, data, meta)
