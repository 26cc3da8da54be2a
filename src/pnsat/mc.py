"""Desk-scale Monte Carlo particle transport for cross-checking solver runs.

Particles move at unit speed (pseudo-time equals path length), scatter at
rate sigma_t with deflection cosines drawn from the scenario's kernel, and
are absorbed by weight multiplication (implicit capture) when sigma_0 <
sigma_t.  Domain faces are vacuum: a particle crossing any face is lost.
Energy-mode scenarios need no special handling since the continuous
slowing down transformation makes energy an affine function of pseudo-time.

Transport is event-driven: each pass flies every live particle once, from
its birth or last collision to its next collision, its exit or the last
record time, and deposits it at every record time the flight covers; only
the particles that collided fly again.  The random draws therefore come in
flight-generation order, so tallies at a fixed seed differ from those of
versions that stopped every particle at each record time, but they are a
statistically equivalent realization, still bit-identical between repeats
and across worker counts.

The batches run on forked pool workers, each of which keeps the memory it
frees in its own heap (:func:`_keep_heap`): a pass frees batch-sized
temporaries (about 500 KB per array at 62.5k particles), and glibc's
default trimming would hand them back to the kernel, so that the next pass
faults in fresh zeroed pages.  The calling process's allocator is never
changed.

Fluence-density snapshots are tallied with a track-length estimator: each
particle deposits its in-window track, discretized at a few sub-times of a
short window centred on the snapshot time, into the spatial bins of the
solver's plot grid (bin centres coincide with the interior even-grid
nodes).  Tallies are normalized to the mean-component convention
u_0^0 = (integral of psi over directions) / sqrt(4 pi), so solver snapshots
and Monte Carlo tallies are directly comparable.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import multiprocessing
import numbers
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from .config import InflowSpec, Scenario
from .errors import NumericalError, ValidationError
from .sphharm import FOUR_PI

SQRT_FOUR_PI = math.sqrt(FOUR_PI)

N_BATCHES = 16  # independent batches; their spread gives the per-bin standard error
WINDOW_FRAC = 0.02  # track-length window of a snapshot, as a fraction of the time horizon
SUBSAMPLES = 4  # deposit points along each particle's in-window track

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TallyGrid:
    """Uniform spatial bins aligned with the solver plot grid."""

    edges: tuple[np.ndarray, ...]

    @classmethod
    def from_scenario(cls, sc: Scenario) -> "TallyGrid":
        return cls(
            tuple(np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(sc.extents, sc.cells))
        )

    @property
    def centers(self) -> tuple[np.ndarray, ...]:
        return tuple(0.5 * (e[1:] + e[:-1]) for e in self.edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(e.size - 1 for e in self.edges)

    @property
    def bin_volume(self) -> float:
        return float(np.prod([e[1] - e[0] for e in self.edges]))

    @functools.cached_property
    def _tops(self) -> tuple[np.ndarray, ...]:
        """Per axis, each bin's open upper edge: +inf for the last bin, which is closed."""
        return tuple(np.append(e[1:-1], np.inf) for e in self.edges)

    def deposit(self, acc: np.ndarray, pos: np.ndarray, weights: np.ndarray) -> None:
        """Add the weights of points in ``pos`` to their bins of ``acc``.

        Bit-identical to adding ``np.histogramdd(pos, self.edges, weights=weights)``:
        bin i holds edges[i] <= x < edges[i+1], the last bin also x == edges[-1],
        other points are dropped, and each bin sums its weights in input order.
        The bin comes from arithmetic on the uniform edges, corrected by one
        where roundoff puts a point on the wrong side of an edge.  The cast
        truncates toward zero, which differs from the floor only below the
        first edge, where the clamp gives bin 0 either way.
        """
        if pos.shape[0] == 0:
            return
        size = acc.size
        for d, (e, top) in enumerate(zip(self.edges, self._tops)):
            x = pos[:, d]
            n = e.size - 1
            i = ((x - e[0]) * (n / (e[-1] - e[0]))).astype(np.intp)
            np.minimum(i, n - 1, out=i)  # the ufuncs: np.clip's Python wrapper adds about 2.7 us a call
            np.maximum(i, 0, out=i)
            i -= x < e.take(i)
            i += x >= top.take(i)
            if d == 0:
                flat = i
                inside = (x >= e[0]) & (x <= e[-1])
            else:
                flat *= n
                flat += i
                inside &= (x >= e[0]) & (x <= e[-1])
        # one bin past the grid collects the dropped points
        flat[~inside] = size
        acc += np.bincount(flat, weights, minlength=size + 1)[:size].reshape(acc.shape)


@dataclass
class TallySnapshot:
    time: float
    energy: float | None
    u00: np.ndarray
    stderr: np.ndarray


@dataclass
class McResult:
    scenario: Scenario
    grid: TallyGrid
    snapshots: list[TallySnapshot]
    n_particles: int
    seed: int
    meta: dict

    @property
    def centers(self) -> tuple[np.ndarray, ...]:
        return self.grid.centers


# ---------------------------------------------------------------------------
# sampling helpers


def _accepted(n: int, propose, what: str) -> np.ndarray:
    """n draws by rejection; ``propose(m)`` returns the accepted ones of m proposals (2 * missing + 16).

    Past 1000 n + 10^4 proposals (acceptance below about 1e-3; the bundled
    sources accept 0.5 or more) raises NumericalError naming the sampler ``what``.
    """
    out = np.empty(n)
    filled = proposed = 0
    while filled < n:
        if proposed > 1000 * n + 10_000:
            raise NumericalError(
                f"Monte Carlo {what} sampler accepted {filled} of {proposed} proposals "
                "(acceptance below 1e-3); the source is not sampleable by rejection"
            )
        m = 2 * (n - filled) + 16
        take = propose(m)[: n - filled]
        proposed += m
        out[filled : filled + take.size] = take
        filled += take.size
    return out


def _sample_deflection(spectrum, n: int, rng) -> np.ndarray:
    """Deflection cosines drawn from the spectrum's law.

    Henyey-Greenstein by inversion of its g (g = 0 is isotropic); a table
    (g None) by rejection against the Legendre reconstruction.
    """
    g = spectrum.g
    if g is not None:
        if abs(g) < 1e-12:
            return rng.uniform(-1.0, 1.0, n)
        u = rng.random(n)
        frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * u)
        return (1.0 + g * g - frac * frac) / (2.0 * g)
    grid = np.linspace(-1.0, 1.0, 513)
    dens = spectrum.phase_density(grid)
    if dens.min() < -1e-10 * max(dens.max(), 1.0):
        raise NumericalError("tabulated scattering kernel is not sampleable (negative density)")
    env = dens.max() * 1.05

    def propose(m):
        cand = rng.uniform(-1.0, 1.0, m)
        return cand[rng.random(m) * env < np.maximum(spectrum.phase_density(cand), 0.0)]
    return _accepted(n, propose, "scattering deflection")


def _rotate(u: list, mu_s: np.ndarray, chi: np.ndarray) -> list:
    """Deflect unit vectors (components ``u``) by polar cosine mu_s and azimuth chi; renormalize.

    The helper frame is e1 = ref x u / |ref x u|, e2 = u x e1, with ref = e_z,
    or e_x where |u_z| >= 0.9 so that ref is never near-parallel to u.  The
    e_x rows are rotated cyclically, (u_x, u_y, u_z) -> (u_y, u_z, u_x), which
    maps e_x to e_z, so both frames share the e_z formulas written out per
    component; the products and sums are those of the cross-product form.
    """
    ux, uy, uz = u
    use_z = np.abs(uz) < 0.9
    a = np.where(use_z, ux, uy)
    b = np.where(use_z, uy, uz)
    c = np.where(use_z, uz, ux)
    # e1 = (-b, a, 0) / |(-b, a, 0)|, e2 = (-c e1_a, -c e1_b, a e1_a + b e1_b)
    norm = np.sqrt(a * a + b * b)
    e1_a = a / norm
    e1_b = b / norm
    s = np.sqrt(np.maximum(0.0, 1.0 - mu_s * mu_s))
    s_cos = s * np.cos(chi)
    s_sin = s * np.sin(chi)
    o_a = mu_s * a - s_cos * e1_b - s_sin * (c * e1_a)
    o_b = mu_s * b + s_cos * e1_a - s_sin * (c * e1_b)
    o_c = mu_s * c + s_sin * (a * e1_a + b * e1_b)
    out = [
        np.where(use_z, o_a, o_c),
        np.where(use_z, o_b, o_a),
        np.where(use_z, o_c, o_b),
    ]
    norm = np.sqrt(out[0] * out[0] + out[1] * out[1] + out[2] * out[2])
    for oc in out:
        oc /= norm
    return out


def _source_sampler(sc: Scenario):
    """The sampler of the scenario's source; ValidationError unless the oracle samples it.

    Two sources are supported: 'gaussian_bulk' initial data with no face
    inflow (:func:`_sample_initial`), and 'zero' initial data with exactly
    one inflow face, a 'beam' (with ``sigma_x`` on multi-axis domains;
    :func:`_sample_beam_source` bound to that face and inflow).  Either is
    called as ``sample(sc, n, rng, read)``, where ``read`` names the
    direction components to compute (all three when omitted).
    """
    inflows = {
        f"{sc.axis_names[d]}_{side}": ((d, side), spec.inflow)
        for (d, side), spec in sc.faces.items()
        if spec.inflow.kind != "none"
    }
    kind = sc.initial.kind
    if kind == "gaussian_bulk":
        if inflows:
            raise ValidationError(
                "Monte Carlo runs with 'gaussian_bulk' initial data need every face inflow "
                f"'none', got inflow on {', '.join(sorted(inflows))}"
            )
        return _sample_initial
    if kind != "zero":
        raise ValidationError(
            f"Monte Carlo supports 'gaussian_bulk' or 'zero' initial data, got {kind!r}"
        )
    if len(inflows) != 1:
        raise ValidationError(
            "Monte Carlo runs with 'zero' initial data need exactly one inflow face, "
            f"got {len(inflows)}"
        )
    [(name, (face, inflow))] = inflows.items()
    if inflow.kind != "beam":
        raise ValidationError(
            f"Monte Carlo supports only 'beam' inflow, got {inflow.kind!r} on {name}"
        )
    if sc.ndim > 1 and inflow.sigma_x is None:
        raise ValidationError(f"multi-axis Monte Carlo beam runs need sigma_x on {name}")
    return functools.partial(_sample_beam_source, face=face, inflow=inflow)


def _read_components(sc: Scenario) -> tuple[int, ...]:
    """The direction components a flight of the scenario reads.

    A particle flies along the active axes only; once it scatters,
    :func:`_rotate` reads all three components.
    """
    if float(sc.scattering.moments[0]) > 0.0:
        return (0, 1, 2)
    return tuple(ax - 1 for ax in sc.axes)


def _directions(mu: np.ndarray, comp: int, rng, read=(0, 1, 2)) -> np.ndarray:
    """Unit directions (n, 3), column-contiguous, with component ``comp`` = mu and a uniform azimuth.

    The other two components, in ascending order, are s cos(phi) and
    s sin(phi) with s = sqrt(1 - mu^2).  Only the components in ``read``
    are computed; the others are NaN.  phi is drawn either way, so the
    random stream does not depend on ``read``.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi, mu.size)
    s_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    dirs = np.empty((3, mu.size)).T
    first, second = (c for c in range(3) if c != comp)
    dirs[:, comp] = mu
    for c, trig in ((first, np.cos), (second, np.sin)):
        dirs[:, c] = s_t * trig(phi) if c in read else np.nan
    return dirs


def _sample_initial(sc: Scenario, n: int, rng, read=(0, 1, 2)):
    """Positions, directions, weight-per-particle for an initial-value run.

    Positions (n, ndim) and directions (n, 3) are column-contiguous, the
    per-component layout :func:`_advance_batch` flies; only the direction
    components in ``read`` are computed (see :func:`_directions`).
    """
    init = sc.initial
    pos = np.stack([rng.normal(m, s, n) for m, s in zip(init.mu, init.sigma)]).T
    amp = init.amplitude
    mass_profile = amp
    for s in init.sigma:
        # integral of the per-axis factor
        mass_profile *= s * math.sqrt(2.0 * math.pi) if init.normalize == "peak" else 1.0
    if init.direction == "isotropic":
        mu = rng.uniform(-1.0, 1.0, n)
        total_mass = SQRT_FOUR_PI * mass_profile  # rho = sqrt(4 pi) * u00
    else:
        a, b = init.dir_a, init.dir_b

        def propose(m):
            cand = rng.uniform(-1.0, 1.0, m)
            return cand[rng.random(m) * (a + abs(b)) < a + b * cand]
        mu = _accepted(n, propose, "initial direction")
        total_mass = FOUR_PI * a * mass_profile
    dirs = _directions(mu, 2, rng, read)
    birth = np.zeros(n)
    return pos, dirs, birth, total_mass / n


def _sample_beam_source(sc: Scenario, n: int, rng, read=(0, 1, 2), *, face: tuple[int, str], inflow: InflowSpec):
    """Positions, directions, birth times, weight for a beam ``inflow`` on ``face`` = (dim, side).

    Laid out, and ``read`` used, as by :func:`_sample_initial`.
    """
    d, side = face
    axis = sc.axes[d]
    sign = 1 if side == "high" else -1
    # birth times from the energy profile (or uniform when none)
    if inflow.eps_center is not None:

        def propose_tau(m):
            tau = (sc.eps_max - rng.normal(inflow.eps_center, inflow.sigma_eps, m)) / sc.s_rho
            return tau[(tau >= 0.0) & (tau <= sc.t_end)]
        taus = _accepted(n, propose_tau, "beam birth time")
        # time integral of exp(-((eps(tau)-c)/(sqrt2 s))^2) over [0, t_end]
        rt2s = math.sqrt(2.0) * inflow.sigma_eps
        z0 = (sc.eps_max - inflow.eps_center) / rt2s
        z1 = (sc.eps_max - sc.s_rho * sc.t_end - inflow.eps_center) / rt2s
        time_integral = (
            rt2s / sc.s_rho * math.sqrt(math.pi) * 0.5 * (math.erf(z0) - math.erf(z1))
        )
    else:
        taus = rng.uniform(0.0, sc.t_end, n)
        time_integral = sc.t_end
    # transverse position(s)
    pos = np.empty((sc.ndim, n)).T
    space_integral = 1.0
    for j in range(sc.ndim):
        if j == d:
            lo, hi = sc.extents[j]
            pos[:, j] = lo if side == "low" else hi
        else:
            pos[:, j] = rng.normal(0.0, inflow.sigma_x, n)
            # integral of exp(-(x/(sqrt2 s))^2) over the line
            space_integral *= inflow.sigma_x * math.sqrt(2.0 * math.pi)
    # direction: density |mu| * exp(-((mu*sign+1)/(sqrt2 s))^2) on the incoming half
    s_om = inflow.sigma_omega

    def propose_mu(m):
        cand = -1.0 + np.abs(rng.normal(0.0, s_om, m))
        cand = cand[cand < 0.0]
        return cand[rng.random(cand.size) < np.abs(cand)]
    mu_in = _accepted(n, propose_mu, "beam direction")
    # mu_in is the cosine along the INWARD direction -sign*e_axis ... flip to axis component
    dirs = _directions(sign * mu_in, axis - 1, rng, read)
    # total injected mass: int |mu| psi_in over incoming hemisphere, x, tau
    mu_grid = np.linspace(-1.0, 0.0, 4001)
    dens = np.abs(mu_grid) * np.exp(-(((mu_grid + 1.0) / (math.sqrt(2.0) * s_om)) ** 2))
    dir_integral = 2.0 * math.pi * np.trapezoid(dens, mu_grid)
    total_mass = inflow.amplitude * time_integral * space_integral * dir_integral
    return pos, dirs, taus, total_mass / n


# ---------------------------------------------------------------------------
# transport

BIRTH_TOL = 1e-15  # a particle is tallied at record times from birth - BIRTH_TOL on


def _record_times(sc: Scenario):
    """(times, snapshot indices, scales) of the deposits, in time order.

    Each snapshot's track-length window (:data:`WINDOW_FRAC` of the horizon,
    narrowed to fit inside [0, t_end]) is sampled at :data:`SUBSAMPLES`
    evenly spaced record times, each scaled 1 / SUBSAMPLES; a zero-width
    window has one record time.
    """
    window = WINDOW_FRAC * sc.t_end
    rec = []
    for si, ts in enumerate(sc.snapshot_times):
        w_eff = min(window, 2.0 * ts, 2.0 * (sc.t_end - ts))
        k_eff = SUBSAMPLES if w_eff > 0.0 else 1
        for j in range(k_eff):
            rec.append((ts - 0.5 * w_eff + w_eff * (j + 0.5) / k_eff, si, 1.0 / k_eff))
    rec.sort(key=lambda r: r[0])
    times, snaps, scales = zip(*rec)
    return list(times), list(snaps), list(scales)


def _exit_distance(x: list, d: list, lo: list, hi: list) -> np.ndarray:
    """Path length to the face each particle leaves through (inf when it never does).

    Per axis the far face along the flight, (hi - x) / d for d > 0 and
    (lo - x) / d for d < 0; the particle leaves at the nearest of them.
    """
    s_exit = None
    for xk, dk, lk, hk in zip(x, d, lo, hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (np.where(dk > 0.0, hk, lk) - xk) / dk
        s[dk == 0.0] = np.inf
        s_exit = s if s_exit is None else np.minimum(s_exit, s, out=s_exit)
    return s_exit


def _advance_batch(sc: Scenario, grid: TallyGrid, pos, dirs, birth, weight, rng, record):
    """Fly one particle batch from event to event, depositing its tallies.

    ``record`` is (times, snapshot indices, scales, accumulators): the record
    times in increasing order, the snapshot each feeds, its deposit scale,
    and one accumulator (*bins) per snapshot.  Each pass flies every live
    particle once, from its birth or last collision (time t0, position p0)
    to the nearest of its next collision, its exit through a face and the
    last record time, and deposits it at p0 + d (t_r - t0) for every record
    time t_r the flight covers:

    - from birth - BIRTH_TOL on for a first flight, after t0 for a flight
      that starts at a collision;
    - up to the end of the flight, but not at the time a particle exits.

    Only the particles that collided fly again: they scatter (a pure
    absorber stops there) and draw their next collision distance.  Returns
    (flights, deposits), the number of flights and of (particle, record
    time) points handed to ``grid.deposit``.
    """
    sigma_t = sc.scattering.sigma_t
    sigma_0 = float(sc.scattering.moments[0])
    comp = [ax - 1 for ax in sc.axes]
    lo = [e[0] for e in sc.extents]
    hi = [e[1] for e in sc.extents]
    times, snaps, scales, acc = record
    rec = np.asarray(times, dtype=float)

    n = pos.shape[0]
    x = [np.ascontiguousarray(pos[:, k]) for k in range(len(comp))]
    u = [np.ascontiguousarray(dirs[:, c]) for c in range(3)]
    t0 = np.asarray(birth, dtype=float)
    w = np.full(n, weight)
    if sigma_t > 0.0:
        s_coll = rng.exponential(1.0 / sigma_t, n)
    else:
        s_coll = np.full(n, np.inf)
    r_lo = np.searchsorted(rec, t0 - BIRTH_TOL, side="left")
    # (n, ndim) deposit points with contiguous columns
    pts = np.empty((len(comp), n)).T
    flights = deposits = 0
    while t0.size:
        flights += t0.size
        d = [u[c] for c in comp]
        s_end = np.maximum(rec[-1] - t0, 0.0)
        s_exit = _exit_distance(x, d, lo, hi)
        s = np.minimum(s_coll, s_end)
        exited = s_exit <= s
        collided = ~exited & (s_coll < s_end)
        np.minimum(s, s_exit, out=s)
        t1 = t0 + s
        # covered record times end before an exit, after a collision, and at
        # the last record time for a flight that reaches it
        r_hi = np.searchsorted(rec, t1, side="left")
        r_hi[~(exited | collided)] = rec.size
        ci = np.flatnonzero(collided)
        tie = ci[rec[np.minimum(r_hi[ci], rec.size - 1)] == t1[ci]]
        r_hi[tie] = np.searchsorted(rec, t1[tie], side="right")
        # deposit every flight that covers a record time, one record at a time
        cov = np.flatnonzero(r_hi > r_lo)
        if cov.size:
            c_lo, c_hi = r_lo[cov], r_hi[cov]
            c_t0, c_w = t0[cov], w[cov]
            c_x = [xk[cov] for xk in x]
            c_d = [dk[cov] for dk in d]
            for r in range(int(c_lo.min()), int(c_hi.max())):
                j = np.flatnonzero((c_lo <= r) & (c_hi > r))
                if not j.size:
                    continue
                dt = rec[r] - c_t0.take(j)
                p = pts[: j.size]
                for k in range(len(comp)):
                    np.multiply(c_d[k].take(j), dt, out=p[:, k])
                    p[:, k] += c_x[k].take(j)
                grid.deposit(acc[snaps[r]], p, c_w.take(j) * scales[r])
                deposits += j.size
        if sigma_0 <= 0.0:
            break
        # the collided particles scatter and fly again
        n_c = ci.size
        if not n_c:
            break
        s_c = s[ci]
        x = [xk[ci] + dk[ci] * s_c for xk, dk in zip(x, d)]
        t0 = t1[ci]
        w = w[ci]
        if sigma_0 < sigma_t:
            w *= sigma_0 / sigma_t
        mu_s = _sample_deflection(sc.scattering, n_c, rng)
        chi = rng.uniform(0.0, 2.0 * math.pi, n_c)
        u = _rotate([uc[ci] for uc in u], mu_s, chi)
        s_coll = rng.exponential(1.0 / sigma_t, n_c)
        r_lo = np.searchsorted(rec, t0, side="right")
    return flights, deposits


def _workers(n_batches: int) -> int:
    """Worker processes for a run: one per usable core, at most one per batch."""
    return min(n_batches, len(os.sched_getaffinity(0)))


def _run_batch(sc: Scenario, grid: TallyGrid, sample, record, task):
    """Sample (by ``sample``, see :func:`_source_sampler`) and advance one (seed, count) batch.

    ``record`` is (times, snapshot indices, scales) of the deposits, in time
    order.  Particles sampled outside the closed domain box (the tails of a
    bulk Gaussian or of a beam's transverse profile) are dropped, each kept
    particle with its weight: the solver's data live only on the grid.
    Only the direction components a flight reads are computed
    (:func:`_read_components`).  Returns the batch's (n_snapshots, *bins)
    tally with its flight and deposit counts.
    """
    child, n_b = task
    rng = np.random.default_rng(child)
    pos, dirs, birth, weight = sample(sc, n_b, rng, _read_components(sc))
    inside = np.ones(pos.shape[0], dtype=bool)
    for x, (lo, hi) in zip(pos.T, sc.extents):
        inside &= (x >= lo) & (x <= hi)
    if not inside.all():
        pos, dirs, birth = pos[inside], dirs[inside], birth[inside]
    tally = np.zeros((len(sc.snapshot_times),) + grid.shape)
    flights, deposits = _advance_batch(
        sc, grid, pos, dirs, birth, weight, rng, (*record, list(tally)))
    return tally, flights, deposits


def _timed(fn, task):
    """``fn(task)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn(task)
    return out, time.perf_counter() - t0


def _keep_heap() -> None:
    """Pool-worker initializer: keep freed memory in this process's heap.

    Sets glibc's trim threshold to 1 GiB, so that the memory a pass frees
    stays in the heap for the next pass instead of going back to the kernel
    and faulting in again as fresh zeroed pages, and its mmap threshold to
    32 MiB (glibc's largest), so that a batch's arrays come from that heap
    whatever threshold the worker inherited.  Returns quietly where libc
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD (malloc.h)
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _run_batches(batch, tasks: list, workers: int) -> list:
    """Batch results in task order, from a pool of ``workers`` forked processes.

    Forked workers start without importing anything again, so callers need
    no ``__main__`` guard (the demos call ``simulate`` at module level).
    Each worker first runs :func:`_keep_heap`, so the temporaries one pass
    frees serve the next without a page fault; the setting ends with the
    worker, and ``workers == 1`` runs the batches in this process with its
    allocator untouched.  Results are collected in task order as they
    arrive, so an exception raised in a worker re-raises here with its type
    as soon as every earlier task is done, and leaving the pool stops the
    other workers.
    """
    if workers == 1:
        return list(map(batch, tasks))
    pool = multiprocessing.get_context("fork").Pool(workers, initializer=_keep_heap)
    with pool:
        results = list(pool.imap(batch, tasks, chunksize=1))
    pool.join()
    return results


def simulate(scenario: Scenario, n_particles: int, seed: int) -> McResult:
    """Monte Carlo estimate of the u00 snapshots of a scenario.

    Deterministic for a fixed seed.  Particles are processed in
    ``N_BATCHES`` independent batches, each with its own spawned random
    stream and its own tally; the batch spread yields the per-bin standard
    error.  The batches run on a pool of forked worker processes, one per
    usable core (at most one per batch), or in this process when one core
    is usable.  Each worker keeps the memory it frees in its own heap
    (:func:`_keep_heap`); this process's allocator is never changed.  The
    tallies are stacked in batch order before they are reduced, so the
    result is bit-identical for every worker count.  An unsupported source (see
    :func:`_source_sampler`), a particle count that is not an integer of at
    least ``N_BATCHES`` or a seed that is not a non-negative integer raises
    ValidationError before any particle is sampled or any worker starts.
    Each snapshot's track-length window is ``WINDOW_FRAC`` of the time
    horizon, with ``SUBSAMPLES`` deposit points along the in-window track.

    Each batch advances its particles flight by flight (see
    :func:`_advance_batch`); the tallies at a fixed seed are a different
    realization from those of versions that stopped every particle at each
    record time, statistically equivalent to them.  ``meta`` records the
    total ``"flights"`` and ``"deposits"`` (particle positions handed to
    the tally grid), summed in batch order, ``"seconds"``: the sum of
    the per-batch wall times in batch order (``"batches"``) and the wall
    time of the whole pool (``"pool"``), and ``"kernel"``: the minor page
    faults (``"minor_faults"``) and system seconds (``"system_s"``) the
    batches cost, read by ``getrusage`` before and after them, of the
    reaped workers on a pool and of this process when it runs them.
    """
    t0 = time.perf_counter()
    sample = _source_sampler(scenario)
    for name, value in (("n_particles", n_particles), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    if n_particles < N_BATCHES:
        raise ValidationError("need at least one particle per batch")
    sc = scenario
    grid = TallyGrid.from_scenario(sc)
    snap_times = list(sc.snapshot_times)
    if not snap_times:
        raise ValidationError("scenario defines no snapshots to tally")
    record = _record_times(sc)

    seq = np.random.SeedSequence(seed)
    counts = [n_particles // N_BATCHES] * N_BATCHES
    for i in range(n_particles % N_BATCHES):
        counts[i] += 1
    batch = functools.partial(_timed, functools.partial(_run_batch, sc, grid, sample, record))
    workers = _workers(N_BATCHES)
    # the pool's workers are reaped by the time _run_batches returns
    who = resource.RUSAGE_SELF if workers == 1 else resource.RUSAGE_CHILDREN
    before = resource.getrusage(who)
    t_pool = time.perf_counter()
    results, batch_s = zip(
        *_run_batches(batch, list(zip(seq.spawn(N_BATCHES), counts)), workers))
    seconds = {"batches": sum(batch_s), "pool": time.perf_counter() - t_pool}
    after = resource.getrusage(who)
    kernel = {
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "system_s": after.ru_stime - before.ru_stime,
    }
    tallies, flights, deposits = zip(*results)
    batch_tallies = np.stack(tallies)
    flights, deposits = sum(flights), sum(deposits)
    # number density -> u00 convention, per bin volume; each batch is an
    # independent estimate of the full tally (per-particle weight uses the
    # batch size), so the batch mean is the estimator
    norm = 1.0 / (grid.bin_volume * SQRT_FOUR_PI)
    batch_tallies *= norm
    mean = batch_tallies.mean(axis=0)
    stderr = batch_tallies.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
    snapshots = [
        TallySnapshot(ts, sc.energy_of(ts), mean[i], stderr[i])
        for i, ts in enumerate(snap_times)
    ]
    log.debug(
        "simulate: %d batches on %d workers in %.3f s (batches %.3f s, pool %.3f s), "
        "%d flights, %d deposits, %d minor faults, %.3f s system",
        N_BATCHES, workers, time.perf_counter() - t0, seconds["batches"], seconds["pool"],
        flights, deposits, kernel["minor_faults"], kernel["system_s"],
    )
    return McResult(
        scenario=sc,
        grid=grid,
        snapshots=snapshots,
        n_particles=n_particles,
        seed=seed,
        meta={
            "n_batches": N_BATCHES,
            "workers": workers,
            "window": WINDOW_FRAC * sc.t_end,
            "subsamples": SUBSAMPLES,
            "flights": flights,
            "deposits": deposits,
            "seconds": seconds,
            "kernel": kernel,
            "source": "initial" if sample is _sample_initial else "beam",
        },
    )
