"""Scenario configuration: JSON schema validation and typed specs.

A scenario document has the sections ``model``, ``domain``, ``boundaries``,
``initial``, ``integration`` and ``outputs``.  Validation is strict:
unknown keys are rejected before anything is allocated, and the normalized
echo of a document is a fixed point of the parser.

Energy-mode scenarios (continuous slowing down with a constant stopping
power times density, ``s_rho``) are mapped to pseudo-time immediately:
tau = (eps_max - eps) / s_rho, and a beam whose profile is given in energy
carries the inverse map, so the solver and the Monte Carlo oracle only
ever see pseudo-time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .moments import ScatteringSpectrum, load_moment_table
from .sphharm import FOUR_PI, flat_position

AXIS_NAMES = {"x": 1, "y": 2, "z": 3}
AXIS_LABELS = {1: "x", 2: "y", 3: "z"}


def _section(d, where: str) -> dict:
    """``d`` itself when it is a JSON object; anything else is a ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object, got {d!r}")
    return d


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(_section(d, where)) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(d)
    if missing:
        raise ValidationError(f"missing key(s) {sorted(missing)} in {where}")


def _is_integer(v) -> bool:
    """True for an int that is not a bool (bool subclasses int); floats and strings fail."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(d, key, where, lo=None, hi=None):
    v = d[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ValidationError(f"{where}.{key} must be a finite number, got {v!r}")
    if lo is not None and v < lo:
        raise ValidationError(f"{where}.{key} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ValidationError(f"{where}.{key} must be <= {hi}, got {v}")
    return float(v)


def _positive(d, key, where) -> float:
    """``d[key]`` as a finite number > 0."""
    v = _number(d, key, where)
    if not v > 0.0:
        raise ValidationError(f"{where}.{key} must be > 0, got {v}")
    return v


def _numbers(d, key, where, count=None, positive=False) -> tuple[float, ...]:
    """``d[key]`` as a list of finite numbers (``count`` of them, each > 0 when ``positive``)."""
    v = d[key]
    if not isinstance(v, list) or (count is not None and len(v) != count):
        size = "" if count is None else f" of length {count}"
        raise ValidationError(f"{where}.{key} must be a list of numbers{size}, got {v!r}")
    out = tuple(_number(v, i, f"{where}.{key}") for i in range(len(v)))
    if positive and not all(x > 0.0 for x in out):
        raise ValidationError(f"{where}.{key} entries must be > 0, got {v!r}")
    return out


def _moment(m, where) -> tuple[int, int, float]:
    """One initial moment {"l", "k", "amp"}: integers with |k| <= l and a finite amplitude."""
    _require_keys(m, {"l", "k", "amp"}, {"l", "k", "amp"}, where)
    if not (_is_integer(m["l"]) and _is_integer(m["k"])):
        raise ValidationError(f"{where}: l and k must be integers, got l={m['l']!r}, k={m['k']!r}")
    try:
        flat_position(m["l"], m["k"])
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return m["l"], m["k"], _number(m, "amp", where)


# ---------------------------------------------------------------------------
# inflow


@dataclass(frozen=True)
class InflowSpec:
    """Separable inflow psi_in = amplitude * space(x_t) * dir(omega) * time(tau)."""

    kind: str  # 'none' | 'isotropic' | 'beam'
    amplitude: float = 0.0
    sigma_x: float | None = None
    sigma_omega: float | None = None
    eps_center: float | None = None
    sigma_eps: float | None = None
    eps_max: float | None = None  # with s_rho, model.stopping's map eps = eps_max - s_rho * tau, for eps_center
    s_rho: float | None = None  # set by scenario_from_dict, not echoed by to_dict

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "InflowSpec":
        kind = _section(d, where).get("kind")
        if kind == "none":
            _require_keys(d, {"kind"}, {"kind"}, where)
            return cls("none")
        if kind == "isotropic":
            _require_keys(d, {"kind", "amplitude"}, {"kind", "amplitude"}, where)
            return cls("isotropic", amplitude=_number(d, "amplitude", where))
        if kind == "beam":
            allowed = {"kind", "amplitude", "sigma_x", "sigma_omega", "eps_center", "sigma_eps"}
            _require_keys(d, allowed, {"kind", "amplitude", "sigma_omega"}, where)
            if ("eps_center" in d) != ("sigma_eps" in d):
                raise ValidationError(f"{where}: eps_center and sigma_eps must be given together")
            return cls(
                "beam",
                amplitude=_number(d, "amplitude", where),
                sigma_x=_positive(d, "sigma_x", where) if "sigma_x" in d else None,
                sigma_omega=_positive(d, "sigma_omega", where),
                eps_center=_number(d, "eps_center", where) if "eps_center" in d else None,
                sigma_eps=_positive(d, "sigma_eps", where) if "sigma_eps" in d else None,
            )
        raise ValidationError(f"{where}.kind must be 'none', 'isotropic' or 'beam', got {kind!r}")

    def direction_profile(self, omega: np.ndarray, axis: int, face_sign: int) -> np.ndarray:
        """The direction-dependent factor at direction array (n, 3)."""
        if self.kind == "isotropic":
            return np.ones(omega.shape[0])
        if self.kind == "beam":
            c = omega[:, axis - 1] * face_sign
            return np.exp(-(((c + 1.0) / (math.sqrt(2.0) * self.sigma_omega)) ** 2))
        return np.zeros(omega.shape[0])

    def spatial_profile(self, x_t: np.ndarray) -> np.ndarray:
        if self.kind == "beam" and self.sigma_x is not None:
            return np.exp(-((np.asarray(x_t) / (math.sqrt(2.0) * self.sigma_x)) ** 2))
        return np.ones_like(np.asarray(x_t, dtype=float))

    def time_factor(self, tau: float) -> float:
        if self.kind == "beam" and self.eps_center is not None:
            eps = self.eps_max - self.s_rho * tau
            return math.exp(-(((eps - self.eps_center) / (math.sqrt(2.0) * self.sigma_eps)) ** 2))
        return 1.0

    def to_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        if self.kind == "isotropic":
            return {"kind": "isotropic", "amplitude": self.amplitude}
        out = {"kind": "beam", "amplitude": self.amplitude, "sigma_omega": self.sigma_omega}
        if self.sigma_x is not None:
            out["sigma_x"] = self.sigma_x
        if self.eps_center is not None:
            out["eps_center"] = self.eps_center
            out["sigma_eps"] = self.sigma_eps
        return out


@dataclass(frozen=True)
class FaceSpec:
    kind: str  # 'onsager' | 'unstable_marshak'
    alpha: float
    inflow: InflowSpec

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "FaceSpec":
        _require_keys(d, {"type", "alpha", "psi_in"}, {"type"}, where)
        kind = d["type"]
        if kind not in ("onsager", "unstable_marshak"):
            raise ValidationError(f"{where}.type must be 'onsager' or 'unstable_marshak'")
        alpha = _number(d, "alpha", where, lo=0.0, hi=1.0) if "alpha" in d else 1.0
        inflow = InflowSpec.from_dict(d.get("psi_in", {"kind": "none"}), f"{where}.psi_in")
        return cls(kind, alpha, inflow)

    def to_dict(self) -> dict:
        return {"type": self.kind, "alpha": self.alpha, "psi_in": self.inflow.to_dict()}


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialSpec:
    """Initial moment fields.

    kinds:
      zero                      -- all moments zero (boundary-driven runs)
      gaussian_bulk             -- separable Gaussian profile assigned to a
                                   direction distribution ('isotropic' puts
                                   the profile directly into the mean
                                   component; 'affine_mu' adds a linear
                                   omega_z factor a + b*omega_z)
      gaussian_envelope_moments -- explicit even-component amplitudes under
                                   a shared envelope exp(-(x/width)^2), with
                                   the odd components optionally induced by
                                   a face's boundary matrix
    """

    kind: str
    mu: tuple[float, ...] = ()
    sigma: tuple[float, ...] = ()
    amplitude: float = 1.0
    normalize: str = "peak"  # 'peak' | 'pdf'
    direction: str = "isotropic"  # 'isotropic' | 'affine_mu'
    dir_a: float = 1.0
    dir_b: float = 0.0
    center: tuple[float, ...] = ()
    width: tuple[float, ...] = ()
    moments: tuple[tuple[int, int, float], ...] = ()
    odd_from_bc: str | None = None

    @classmethod
    def from_dict(cls, d: dict, ndim: int, where: str = "initial") -> "InitialSpec":
        kind = _section(d, where).get("kind")
        if kind == "zero":
            _require_keys(d, {"kind"}, {"kind"}, where)
            return cls("zero")
        if kind == "gaussian_bulk":
            allowed = {"kind", "mu", "sigma", "amplitude", "normalize", "direction"}
            _require_keys(d, allowed, {"kind", "mu", "sigma"}, where)
            mu, sg = _numbers(d, "mu", where, ndim), _numbers(d, "sigma", where, ndim, positive=True)
            norm = d.get("normalize", "peak")
            if norm not in ("peak", "pdf"):
                raise ValidationError(f"{where}.normalize must be 'peak' or 'pdf'")
            direction = d.get("direction", {"kind": "isotropic"})
            dkind = _section(direction, f"{where}.direction").get("kind")
            if dkind == "isotropic":
                _require_keys(direction, {"kind"}, {"kind"}, f"{where}.direction")
                da, db = 1.0, 0.0
            elif dkind == "affine_mu":
                _require_keys(direction, {"kind", "a", "b"}, {"kind", "a", "b"}, f"{where}.direction")
                at = f"{where}.direction"
                da, db = _number(direction, "a", at), _number(direction, "b", at)
                if da <= 0 or abs(db) > da:
                    raise ValidationError(f"{where}.direction: need a > 0 and |b| <= a for a nonnegative distribution")
            else:
                raise ValidationError(f"{where}.direction.kind must be 'isotropic' or 'affine_mu'")
            return cls(
                "gaussian_bulk",
                mu=mu,
                sigma=sg,
                amplitude=_number(d, "amplitude", where) if "amplitude" in d else 1.0,
                normalize=norm,
                direction=dkind,
                dir_a=da,
                dir_b=db,
            )
        if kind == "gaussian_envelope_moments":
            allowed = {"kind", "center", "width", "moments", "odd_from_bc"}
            _require_keys(d, allowed, {"kind", "center", "width", "moments"}, where)
            center, width = _numbers(d, "center", where, ndim), _numbers(d, "width", where, ndim, positive=True)
            if not isinstance(d["moments"], list):
                raise ValidationError(f"{where}.moments must be a list, got {d['moments']!r}")
            moments = tuple(_moment(m, f"{where}.moments[{i}]") for i, m in enumerate(d["moments"]))
            first = {}
            for i, (l, k, _) in enumerate(moments):
                if (l, k) in first:
                    raise ValidationError(f"{where}.moments[{i}]: repeated moment (l={l}, k={k}), "
                                          f"first given in {where}.moments[{first[l, k]}]")
                first[l, k] = i
            return cls(
                "gaussian_envelope_moments",
                center=center,
                width=width,
                moments=moments,
                odd_from_bc=d.get("odd_from_bc"),
            )
        raise ValidationError(
            f"{where}.kind must be 'zero', 'gaussian_bulk' or 'gaussian_envelope_moments', got {kind!r}"
        )

    def spatial_profile(self, nodes: tuple[np.ndarray, ...]) -> np.ndarray:
        """Separable scalar profile on a tensor grid of node vectors."""
        if self.kind == "gaussian_bulk":
            out = np.array(self.amplitude)
            for x, m, s in zip(nodes, self.mu, self.sigma):
                f = np.exp(-((x - m) ** 2) / (2.0 * s * s))
                if self.normalize == "pdf":
                    f = f / (s * math.sqrt(2.0 * math.pi))
                out = np.multiply.outer(out, f)
            return out
        if self.kind == "gaussian_envelope_moments":
            out = np.array(1.0)
            for x, c, w in zip(nodes, self.center, self.width):
                out = np.multiply.outer(out, np.exp(-(((x - c) / w) ** 2)))
            return out
        shape = tuple(len(x) for x in nodes)
        return np.zeros(shape)

    def moment_amplitudes(self, n_max: int) -> dict[int, float]:
        """Flat-component multipliers applied to the spatial profile."""
        if self.kind == "gaussian_bulk":
            if self.direction == "isotropic":
                return {0: 1.0}
            # psi = profile * (a + b*omega_z): project onto Y_0^0 and Y_1^0
            out = {flat_position(0, 0): self.dir_a * math.sqrt(FOUR_PI)}
            if n_max >= 1:
                out[flat_position(1, 0)] = self.dir_b * math.sqrt(FOUR_PI / 3.0)
            return out
        if self.kind == "gaussian_envelope_moments":
            out = {}
            for l, k, amp in self.moments:
                if l > n_max:
                    raise ValidationError(f"initial moment (l={l}, k={k}) exceeds basis degree {n_max}")
                out[flat_position(l, k)] = amp
            return out
        return {}

    def to_dict(self) -> dict:
        if self.kind == "zero":
            return {"kind": "zero"}
        if self.kind == "gaussian_bulk":
            direction = (
                {"kind": "isotropic"}
                if self.direction == "isotropic"
                else {"kind": "affine_mu", "a": self.dir_a, "b": self.dir_b}
            )
            return {
                "kind": "gaussian_bulk",
                "mu": list(self.mu),
                "sigma": list(self.sigma),
                "amplitude": self.amplitude,
                "normalize": self.normalize,
                "direction": direction,
            }
        out = {
            "kind": "gaussian_envelope_moments",
            "center": list(self.center),
            "width": list(self.width),
            "moments": [{"l": l, "k": k, "amp": a} for l, k, a in self.moments],
        }
        if self.odd_from_bc is not None:
            out["odd_from_bc"] = self.odd_from_bc
        return out


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    __hash__ = None  # compares by value, but holds dicts

    name: str
    n_max: int
    scattering: ScatteringSpectrum  # what the solver and the Monte Carlo oracle read
    scattering_dict: dict  # the document's model.scattering, echoed by to_dict
    axes: tuple[int, ...]
    extents: tuple[tuple[float, float], ...]
    cells: tuple[int, ...]
    faces: dict
    initial: InitialSpec
    cfl: float
    t_end: float
    mode: str = "time"
    s_rho: float | None = None
    eps_max: float | None = None
    snapshot_times: tuple[float, ...] = ()
    length_unit: str = "dimensionless"

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def axis_names(self) -> list[str]:
        return [AXIS_LABELS[a] for a in self.axes]

    def energy_of(self, tau: float) -> float | None:
        if self.mode != "energy":
            return None
        return self.eps_max - self.s_rho * tau

    def tau_of_energy(self, eps: float) -> float:
        if self.mode != "energy":
            raise ValidationError("tau_of_energy only applies to energy-mode scenarios")
        return (self.eps_max - eps) / self.s_rho

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "model": {"N": self.n_max, "scattering": dict(self.scattering_dict)},
            "domain": {
                "axes": self.axis_names,
                "extents": [list(e) for e in self.extents],
                "cells": list(self.cells),
                "length_unit": self.length_unit,
            },
            "boundaries": {
                f"{AXIS_LABELS[self.axes[d_]]}_{side}": spec.to_dict()
                for (d_, side), spec in sorted(self.faces.items(), key=lambda kv: (kv[0][0], kv[0][1]))
            },
            "initial": self.initial.to_dict(),
            "integration": {"cfl": self.cfl, "t_end": self.t_end},
            "outputs": {"snapshot_times": list(self.snapshot_times)},
        }
        if self.mode == "energy":
            d["model"]["stopping"] = {
                "mode": "energy",
                "s_rho": self.s_rho,
                "eps_max": self.eps_max,
                "eps_end": self.eps_max - self.s_rho * self.t_end,
            }
            d["outputs"] = {"snapshot_energies": [self.eps_max - self.s_rho * t for t in self.snapshot_times]}
            d["integration"] = {"cfl": self.cfl}
        else:
            d["model"]["stopping"] = {"mode": "time"}
        return d


def _scattering_from_dict(d: dict, n_max: int, base: Path | None) -> ScatteringSpectrum:
    kind = _section(d, "model.scattering").get("kind")
    if kind == "none":
        _require_keys(d, {"kind"}, {"kind"}, "model.scattering")
        return ScatteringSpectrum.none(n_max)
    if kind == "isotropic":
        _require_keys(d, {"kind", "sigma_s", "sigma_t"}, {"kind", "sigma_s"}, "model.scattering")
        st = _number(d, "sigma_t", "model.scattering", lo=0.0) if "sigma_t" in d else None
        return ScatteringSpectrum.isotropic(_number(d, "sigma_s", "model.scattering", lo=0.0), n_max, st)
    if kind == "henyey_greenstein":
        _require_keys(d, {"kind", "sigma_s", "g", "sigma_t"}, {"kind", "sigma_s", "g"}, "model.scattering")
        st = _number(d, "sigma_t", "model.scattering", lo=0.0) if "sigma_t" in d else None
        return ScatteringSpectrum.henyey_greenstein(
            _number(d, "sigma_s", "model.scattering", lo=0.0),
            _number(d, "g", "model.scattering", lo=-1.0, hi=1.0),
            n_max,
            st,
        )
    if kind == "table":
        _require_keys(d, {"kind", "path"}, {"kind", "path"}, "model.scattering")
        if not isinstance(d["path"], str) or not d["path"]:
            raise ValidationError(f"model.scattering.path must be a non-empty string, got {d['path']!r}")
        path = Path(d["path"])
        if base is not None and not path.is_absolute():
            path = base / path
        return load_moment_table(path).truncated(n_max)
    raise ValidationError(f"model.scattering.kind must be one of none/isotropic/henyey_greenstein/table")


def scenario_from_dict(doc: dict, base: Path | None = None) -> Scenario:
    """Validate a config document and build the Scenario."""
    _require_keys(
        doc,
        {"name", "model", "domain", "boundaries", "initial", "integration", "outputs"},
        {"model", "domain", "boundaries", "initial", "integration", "outputs"},
        "config",
    )
    scenario_name = doc.get("name", "scenario")  # it names the default output directory
    if not isinstance(scenario_name, str) or not scenario_name or "/" in scenario_name or "\\" in scenario_name:
        raise ValidationError(f"name must be a non-empty string without a path separator, got {scenario_name!r}")
    model = doc["model"]
    _require_keys(model, {"N", "scattering", "stopping"}, {"N", "scattering", "stopping"}, "model")
    n_max = model["N"]
    if not _is_integer(n_max) or n_max < 1:
        raise ValidationError(
            f"model.N must be a positive integer, got {n_max!r} (P_0 has no transport, so no CFL time step)"
        )

    dom = doc["domain"]
    _require_keys(dom, {"axes", "extents", "cells", "length_unit"}, {"axes", "extents", "cells"}, "domain")
    for key in ("axes", "extents", "cells"):
        if not isinstance(dom[key], list):
            raise ValidationError(f"domain.{key} must be a list, got {dom[key]!r}")
    axis_names = dom["axes"]
    if not axis_names or any(not isinstance(a, str) or a not in AXIS_NAMES for a in axis_names):
        raise ValidationError(f"domain.axes must be a nonempty list drawn from {sorted(AXIS_NAMES)}")
    axes = tuple(AXIS_NAMES[a] for a in axis_names)
    if len(set(axes)) != len(axes):
        raise ValidationError("domain.axes must not repeat")
    extents = []
    for i, e in enumerate(dom["extents"]):
        try:
            extents.append(_numbers(dom["extents"], i, "domain.extents", count=2))
        except ValidationError:
            raise ValidationError(
                f"domain.extents entries must be [lo, hi] finite number pairs, got {e!r}"
            ) from None
    extents = tuple(extents)
    cells = tuple(dom["cells"])
    if len(extents) != len(axes) or len(cells) != len(axes):
        raise ValidationError("domain.extents and domain.cells must match the number of axes")
    for (lo, hi), c in zip(extents, cells):
        if not hi > lo:
            raise ValidationError(f"domain extent [{lo}, {hi}] is empty")
        if not _is_integer(c):
            raise ValidationError(f"domain.cells entries must be integers, got {c!r}")
        if c < 4:
            raise ValidationError(f"domain.cells entries must be >= 4, got {c}")

    length_unit = dom.get("length_unit", "dimensionless")
    if not isinstance(length_unit, str) or not length_unit:
        raise ValidationError(f"domain.length_unit must be a non-empty string, got {length_unit!r}")

    bnd = doc["boundaries"]
    expected = {f"{name}_{side}" for name in axis_names for side in ("low", "high")}
    _require_keys(bnd, expected, expected, "boundaries")
    faces = {}
    for d_, name in enumerate(axis_names):
        for side in ("low", "high"):
            faces[(d_, side)] = FaceSpec.from_dict(bnd[f"{name}_{side}"], f"boundaries.{name}_{side}")

    stopping = model["stopping"]
    mode = _section(stopping, "model.stopping").get("mode")
    integ = doc["integration"]
    outputs = doc["outputs"]
    if mode == "time":
        _require_keys(stopping, {"mode"}, {"mode"}, "model.stopping")
        _require_keys(integ, {"cfl", "t_end"}, {"cfl", "t_end"}, "integration")
        t_end = _number(integ, "t_end", "integration", lo=0.0)
        s_rho = eps_max = None
        _require_keys(outputs, {"snapshot_times"}, set(), "outputs")
        snaps = _numbers(outputs, "snapshot_times", "outputs") if "snapshot_times" in outputs else ()
    elif mode == "energy":
        _require_keys(stopping, {"mode", "s_rho", "eps_max", "eps_end"}, {"mode", "s_rho", "eps_max", "eps_end"}, "model.stopping")
        s_rho = _number(stopping, "s_rho", "model.stopping", lo=0.0)
        if s_rho == 0.0:
            raise ValidationError("model.stopping.s_rho must be positive in energy mode")
        eps_max = _number(stopping, "eps_max", "model.stopping")
        eps_end = _number(stopping, "eps_end", "model.stopping")
        if not eps_end < eps_max:
            raise ValidationError("model.stopping requires eps_end < eps_max")
        _require_keys(integ, {"cfl"}, {"cfl"}, "integration")
        t_end = (eps_max - eps_end) / s_rho
        _require_keys(outputs, {"snapshot_energies"}, set(), "outputs")
        energies = _numbers(outputs, "snapshot_energies", "outputs") if "snapshot_energies" in outputs else ()
        snaps = tuple(sorted((eps_max - e) / s_rho for e in energies))
        for t in snaps:
            if t < 0 or t > t_end + 1e-12:
                raise ValidationError("snapshot energies must lie inside [eps_end, eps_max]")
    else:
        raise ValidationError("model.stopping.mode must be 'time' or 'energy'")
    for (d_, side), spec in faces.items():
        if spec.inflow.eps_center is None:
            continue
        if mode != "energy":
            raise ValidationError(
                f"boundaries.{axis_names[d_]}_{side}.psi_in: a beam with eps_center needs "
                "an energy-mode scenario"
            )
        faces[d_, side] = replace(spec, inflow=replace(spec.inflow, eps_max=eps_max, s_rho=s_rho))
    cfl = _number(integ, "cfl", "integration", lo=0.0, hi=1.0)
    if cfl == 0.0:
        raise ValidationError("integration.cfl must lie in (0, 1]")
    if mode == "time":
        for t in snaps:
            if t < 0 or t > t_end + 1e-12:
                raise ValidationError("snapshot times must lie inside [0, t_end]")

    initial = InitialSpec.from_dict(doc["initial"], len(axes))
    if initial.odd_from_bc is not None and initial.odd_from_bc not in (
        f"{name}_{side}" for name in axis_names for side in ("low", "high")
    ):
        raise ValidationError(f"initial.odd_from_bc references unknown face {initial.odd_from_bc!r}")

    scattering = _scattering_from_dict(model["scattering"], n_max, base)
    return Scenario(
        name=scenario_name,
        n_max=n_max,
        scattering=scattering,
        scattering_dict=dict(model["scattering"]),  # a copy: the caller may edit its document
        axes=axes,
        extents=extents,
        cells=cells,
        faces=faces,
        initial=initial,
        cfl=cfl,
        t_end=t_end,
        mode=mode,
        s_rho=s_rho,
        eps_max=eps_max,
        snapshot_times=tuple(sorted(snaps)),
        length_unit=length_unit,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path) as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc, base=path.parent)


def face_key_to_dim_side(scenario: Scenario, key: str) -> tuple[int, str]:
    """'x_low' -> (storage dim, side) for the scenario's axis layout."""
    name, _, side = key.partition("_")
    if name not in AXIS_NAMES or side not in ("low", "high"):
        raise ValidationError(f"malformed face key {key!r}")
    axis = AXIS_NAMES[name]
    if axis not in scenario.axes:
        raise ValidationError(f"face {key!r} refers to an inactive axis")
    return scenario.axes.index(axis), side
