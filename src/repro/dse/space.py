"""Typed ASBR design space: points, grids, and named presets.

A :class:`DesignPoint` is one *hardware configuration* of the paper's
mechanism — auxiliary predictor (family and size, as a
``make_predictor`` spec), whether the ASBR unit is present, its BIT
capacity, the BDT forwarding path (= the threshold: commit→4, mem→3,
execute→2, Section 5.2), and the profile-driven selection policy's
knobs (:func:`repro.profiling.select_branches`).  Points are frozen,
hashable and canonical — a non-ASBR point always carries the default
ASBR knobs, so two ways of writing "just a bimodal-512" are one point,
one journal key and one cache entry.

A :class:`ConfigSpace` is the cross product of per-dimension value
lists, deduplicated the same way.  It is what search drivers
(:mod:`repro.dse.search`) enumerate or sample, and its :meth:`digest`
pins a journal to the space it was produced from.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from repro.asbr.folding import THRESHOLD_BY_UPDATE
from repro.runner.pool import RunSpec
from repro.sim.core import DEFAULT_ENGINE

BDT_UPDATES: Tuple[str, ...] = ("commit", "mem", "execute")

#: Canonical ASBR-knob values carried by non-ASBR points.
_NO_ASBR = {"bit_capacity": 16, "bdt_update": "execute",
            "min_fold_fraction": 0.5, "min_count": 16}

#: Canonical frontend-knob values carried by points without the
#: decoupled front end (same dedup rule as :data:`_NO_ASBR`).
_NO_FRONTEND = {"btb_l1_entries": 64, "btb_l2_entries": 2048,
                "btb_l2_assoc": 4, "ftq_depth": 8, "fdip": False}

BACKENDS: Tuple[str, ...] = ("inorder", "ooo")

#: Canonical out-of-order machine knobs carried by in-order points
#: (same dedup rule as :data:`_NO_ASBR` / :data:`_NO_FRONTEND`).
_NO_OOO = {"issue_width": 2, "rob_size": 32, "iq_size": 16,
           "phys_regs": 64}


@dataclass(frozen=True)
class DesignPoint:
    """One hardware configuration in the ASBR design space."""

    predictor_spec: str = "bimodal-512-512"
    with_asbr: bool = True
    bit_capacity: int = 16
    bdt_update: str = "execute"
    min_fold_fraction: float = 0.5
    min_count: int = 16
    frontend: bool = False
    btb_l1_entries: int = 64
    btb_l2_entries: int = 2048
    btb_l2_assoc: int = 4
    ftq_depth: int = 8
    fdip: bool = False
    backend: str = "inorder"
    issue_width: int = 2
    rob_size: int = 32
    iq_size: int = 16
    phys_regs: int = 64

    def __post_init__(self) -> None:
        if self.bdt_update not in BDT_UPDATES:
            raise ValueError("unknown bdt_update %r (have %s)"
                             % (self.bdt_update, ", ".join(BDT_UPDATES)))
        if self.bit_capacity <= 0:
            raise ValueError("bit_capacity must be positive")
        if not 0.0 <= self.min_fold_fraction <= 1.0:
            raise ValueError("min_fold_fraction must be in [0, 1]")
        if self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        if not self.with_asbr:
            # canonicalise: ASBR knobs are meaningless without the unit
            for name, value in _NO_ASBR.items():
                object.__setattr__(self, name, value)
        if self.frontend:
            # shape validation is the frontend package's job; importing
            # it lazily keeps repro.dse importable on its own
            from repro.frontend import FrontendConfig
            FrontendConfig(btb_l1_entries=self.btb_l1_entries,
                           btb_l2_entries=self.btb_l2_entries,
                           btb_l2_assoc=self.btb_l2_assoc,
                           ftq_depth=self.ftq_depth,
                           fdip=self.fdip)
        else:
            for name, value in _NO_FRONTEND.items():
                object.__setattr__(self, name, value)
        if self.backend not in BACKENDS:
            raise ValueError("unknown backend %r (have %s)"
                             % (self.backend, ", ".join(BACKENDS)))
        if self.backend == "ooo":
            # shape validation lives with the machine; lazy import for
            # the same reason as the frontend above
            from repro.sim.ooo import OoOConfig
            OoOConfig(issue_width=self.issue_width,
                      rob_size=self.rob_size,
                      iq_size=self.iq_size,
                      phys_regs=self.phys_regs)
        else:
            for name, value in _NO_OOO.items():
                object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> int:
        """The paper's pipeline threshold for this forwarding path."""
        return THRESHOLD_BY_UPDATE[self.bdt_update]

    def key(self) -> str:
        """Stable identity string (journal keys, dedup, display)."""
        if not self.with_asbr:
            base = "pred=%s" % self.predictor_spec
        else:
            base = ("pred=%s asbr bit=%d upd=%s ff=%.3f mc=%d"
                    % (self.predictor_spec, self.bit_capacity,
                       self.bdt_update, self.min_fold_fraction,
                       self.min_count))
        if self.frontend:
            base += (" fe btb=%d/%dx%d ftq=%d fdip=%d"
                     % (self.btb_l1_entries, self.btb_l2_entries,
                        self.btb_l2_assoc, self.ftq_depth,
                        int(self.fdip)))
        if self.backend == "ooo":
            base += (" ooo w=%d rob=%d iq=%d preg=%d"
                     % (self.issue_width, self.rob_size,
                        self.iq_size, self.phys_regs))
        return base

    def label(self) -> str:
        """Short human form for tables and plots."""
        if not self.with_asbr:
            base = self.predictor_spec
        else:
            base = "%s+asbr(bit%d,t%d)" % (self.predictor_spec,
                                           self.bit_capacity,
                                           self.threshold)
        if self.frontend:
            base += "+fe(btb%d/%d,ftq%d%s)" % (
                self.btb_l1_entries, self.btb_l2_entries,
                self.ftq_depth, ",fdip" if self.fdip else "")
        if self.backend == "ooo":
            base += "+ooo(w%d,rob%d)" % (self.issue_width,
                                         self.rob_size)
        return base

    def to_spec(self, benchmark: str, n_samples: int,
                seed: int, engine: str = DEFAULT_ENGINE) -> RunSpec:
        """The :class:`RunSpec` evaluating this point on one workload.

        ``engine`` selects the execution engine; it is not part of the
        point's identity (results are bit-identical across engines).
        """
        return RunSpec(benchmark=benchmark, n_samples=n_samples,
                       seed=seed, predictor_spec=self.predictor_spec,
                       with_asbr=self.with_asbr,
                       bit_capacity=self.bit_capacity,
                       bdt_update=self.bdt_update,
                       min_fold_fraction=self.min_fold_fraction,
                       min_count=self.min_count,
                       engine=engine,
                       frontend=self.frontend,
                       btb_l1_entries=self.btb_l1_entries,
                       btb_l2_entries=self.btb_l2_entries,
                       btb_l2_assoc=self.btb_l2_assoc,
                       ftq_depth=self.ftq_depth,
                       fdip=self.fdip,
                       backend=self.backend,
                       issue_width=self.issue_width,
                       rob_size=self.rob_size,
                       iq_size=self.iq_size,
                       phys_regs=self.phys_regs)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "DesignPoint":
        # missing keys take the field default so journals written
        # before the frontend dimensions existed still load
        return cls(**{f.name: d.get(f.name, f.default)
                      for f in fields(cls)})


def _tuple(values) -> tuple:
    out = tuple(values)
    if not out:
        raise ValueError("every space dimension needs at least one value")
    return out


@dataclass(frozen=True)
class ConfigSpace:
    """Cross product of per-dimension value lists."""

    predictors: Tuple[str, ...] = ("bimodal-512-512",)
    asbr: Tuple[bool, ...] = (False, True)
    bit_capacities: Tuple[int, ...] = (16,)
    bdt_updates: Tuple[str, ...] = BDT_UPDATES
    min_fold_fractions: Tuple[float, ...] = (0.5,)
    min_counts: Tuple[int, ...] = (16,)
    frontends: Tuple[bool, ...] = (False,)
    btb_l1_entries: Tuple[int, ...] = (64,)
    btb_l2_entries: Tuple[int, ...] = (2048,)
    btb_l2_assocs: Tuple[int, ...] = (4,)
    ftq_depths: Tuple[int, ...] = (8,)
    fdip: Tuple[bool, ...] = (False,)
    backends: Tuple[str, ...] = ("inorder",)
    issue_widths: Tuple[int, ...] = (2,)
    rob_sizes: Tuple[int, ...] = (32,)
    iq_sizes: Tuple[int, ...] = (16,)
    phys_regs: Tuple[int, ...] = (64,)

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _tuple(getattr(self, f.name)))
        for upd in self.bdt_updates:
            if upd not in BDT_UPDATES:
                raise ValueError("unknown bdt_update %r" % (upd,))
        for be in self.backends:
            if be not in BACKENDS:
                raise ValueError("unknown backend %r" % (be,))

    # ------------------------------------------------------------------
    def points(self) -> List[DesignPoint]:
        """Every distinct point, in deterministic order.

        Non-ASBR points collapse the ASBR dimensions and non-frontend
        points collapse the frontend dimensions (one point per
        remaining combination), so the grid never multiplies
        meaningless variants.
        """
        out: List[DesignPoint] = []
        seen = set()
        defaults = DesignPoint()
        for pred in self.predictors:
            for with_asbr in self.asbr:
                caps = self.bit_capacities if with_asbr else (None,)
                upds = self.bdt_updates if with_asbr else (None,)
                ffs = self.min_fold_fractions if with_asbr else (None,)
                mcs = self.min_counts if with_asbr else (None,)
                for cap in caps:
                    for upd in upds:
                        for ff in ffs:
                            for mc in mcs:
                                for fe in self._frontend_variants():
                                    for be in self._backend_variants():
                                        kw = dict(fe)
                                        kw.update(be)
                                        if with_asbr:
                                            p = DesignPoint(pred, True,
                                                            cap, upd, ff,
                                                            mc, **kw)
                                        else:
                                            p = DesignPoint(
                                                pred, False,
                                                defaults.bit_capacity,
                                                defaults.bdt_update,
                                                defaults.min_fold_fraction,
                                                defaults.min_count,
                                                **kw)
                                        if p not in seen:
                                            seen.add(p)
                                            out.append(p)
        return out

    def _frontend_variants(self) -> List[dict]:
        """Keyword dicts for the frontend sub-grid (collapsed when the
        front end is absent)."""
        out: List[dict] = []
        for frontend in self.frontends:
            if not frontend:
                out.append({"frontend": False})
                continue
            for l1 in self.btb_l1_entries:
                for l2 in self.btb_l2_entries:
                    for assoc in self.btb_l2_assocs:
                        for depth in self.ftq_depths:
                            for fdip in self.fdip:
                                out.append({"frontend": True,
                                            "btb_l1_entries": l1,
                                            "btb_l2_entries": l2,
                                            "btb_l2_assoc": assoc,
                                            "ftq_depth": depth,
                                            "fdip": fdip})
        return out

    def _backend_variants(self) -> List[dict]:
        """Keyword dicts for the backend sub-grid (the OoO machine
        knobs collapse when the backend is in-order)."""
        out: List[dict] = []
        for backend in self.backends:
            if backend != "ooo":
                out.append({"backend": backend})
                continue
            for w in self.issue_widths:
                for rob in self.rob_sizes:
                    for iq in self.iq_sizes:
                        for preg in self.phys_regs:
                            out.append({"backend": "ooo",
                                        "issue_width": w,
                                        "rob_size": rob,
                                        "iq_size": iq,
                                        "phys_regs": preg})
        return out

    @property
    def size(self) -> int:
        return len(self.points())

    def sample(self, k: int, seed: int) -> List[DesignPoint]:
        """``k`` distinct points, reproducible from ``seed``."""
        pts = self.points()
        if k >= len(pts):
            return pts
        return random.Random(seed).sample(pts, k)

    def to_dict(self) -> dict:
        return {f.name: list(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigSpace":
        # frontend dimensions default when absent (pre-frontend files)
        return cls(**{f.name: tuple(d[f.name]) if f.name in d
                      else f.default
                      for f in fields(cls)})

    def digest(self) -> str:
        """Content hash pinning a journal to this exact space."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# named presets
# ----------------------------------------------------------------------
def paper_space() -> ConfigSpace:
    """The paper's threshold-reduction story as a space (fig. 9-11):
    the ASBR core with its quarter-size auxiliary bimodal at every
    forwarding path (thresholds 4/3/2), against the reference
    predictors it displaces."""
    return ConfigSpace(
        predictors=("not-taken", "bimodal-512-512", "bimodal-2048"),
        asbr=(False, True),
        bit_capacities=(16,),
        bdt_updates=BDT_UPDATES,
    )


def default_space() -> ConfigSpace:
    """A broader exploration grid: predictor families and sizes ×
    BIT capacities × forwarding paths × selection strictness."""
    return ConfigSpace(
        predictors=("not-taken", "bimodal-512-512", "bimodal-2048",
                    "gshare-2048-8"),
        asbr=(False, True),
        bit_capacities=(4, 8, 16),
        bdt_updates=BDT_UPDATES,
        min_fold_fractions=(0.3, 0.5),
    )


SPACES = {"paper": paper_space, "default": default_space}


def get_space(name_or_path: str) -> ConfigSpace:
    """Resolve a preset name or a JSON file to a :class:`ConfigSpace`."""
    if name_or_path in SPACES:
        return SPACES[name_or_path]()
    try:
        with open(name_or_path) as f:
            return ConfigSpace.from_dict(json.load(f))
    except FileNotFoundError:
        raise ValueError("unknown space %r (presets: %s; or a JSON file)"
                         % (name_or_path, ", ".join(sorted(SPACES))))
