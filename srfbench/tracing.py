"""Per-layer counts and self times, recorded from outside the program.

``Tracer.install`` rebinds public functions of the srflimits modules to
timing wrappers, in every srflimits module that holds a reference to
them, so calls between modules go through the wrappers too. A wrapper
with a bucket records a span: its self time is its duration minus the
spans of wrapped calls made inside it. A wrapper without a bucket only
counts, and its time stays with the caller's bucket. A function the
program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function, self-time bucket or None)
WRAPPED = (
    ("core", "build_gram", "core.build_gram"),
    ("core", "gram_entry", None),
    ("hp", "min_eig_adaptive", "hp.ladder"),
    ("hp", "hp_symmetric_eigen", "hp.eigen"),
    ("hp", "hp_cholesky", "hp.cholesky"),
    ("hp", "cholesky_solve", "hp.cholesky_solve"),
    ("spectral", "min_eig_for_support", "spectral"),
    ("spectral", "sigma_min", "spectral"),
    ("spectral", "epsilon", "spectral"),
    ("spectral", "contiguity_scan", "spectral"),
    ("recovery", "l0_solve", "recovery.l0"),
    ("recovery", "adversarial_pair", "recovery.minimax"),
    ("recovery", "minimax_experiment", "recovery.minimax"),
    ("szego", "szego_reproduce", "szego.reproduce"),
    ("szego", "legendre_nodes", "szego.legendre_nodes"),
    ("szego", "leading_coeffs", "szego.leading_coeffs"),
    ("cli", "run_cli", "cli"),
    ("reports", "build_report", "reports"),
    ("reports", "enc_real", "reports"),
    ("reports", "enc_coeff_vector", "reports"),
    ("reports", "enc_check", "reports"),
    ("reports", "Report.to_json", "reports"),
)

COUNTS = {
    "core.build_gram.calls": "count",
    "core.gram_entry.calls": "count",
    "hp.min_eig_adaptive.calls": "count",
    "hp.ladder.levels": "count",
    "hp.ladder.extra_levels": "count",
    "hp.ladder.bits": "bit",
    "hp.eigen.calls": "count",
    "hp.eigen.sweeps": "count",
    "hp.cholesky.calls": "count",
    "spectral.supports_certified": "count",
    "recovery.l0.supports_examined": "count",
    "szego.reproduce.calls": "count",
    "szego.quad_nodes": "count",
    "szego.legendre_nodes.misses": "count",
}

SELF_TIMES = (
    "core.build_gram",
    "hp.eigen",
    "hp.cholesky",
    "hp.cholesky_solve",
    "spectral",
    "recovery.l0",
    "recovery.minimax",
    "szego.reproduce",
    "szego.legendre_nodes",
    "szego.leading_coeffs",
    "cli",
    "reports",
)


def _count(counts, key, args, out):
    """Add the counts of one call of ``key`` (module.function)."""
    if key == "core.build_gram":
        counts["core.build_gram.calls"] += 1
    elif key == "core.gram_entry":
        counts["core.gram_entry.calls"] += 1
    elif key == "hp.min_eig_adaptive":
        levels = len(out.history)
        counts["hp.min_eig_adaptive.calls"] += 1
        counts["hp.ladder.levels"] += levels
        counts["hp.ladder.extra_levels"] += levels - 2
        counts["hp.ladder.bits"] += sum(bits for bits, _ in out.history)
    elif key == "hp.hp_symmetric_eigen":
        counts["hp.eigen.calls"] += 1
        counts["hp.eigen.sweeps"] += getattr(out, "sweeps", 0)
    elif key == "hp.hp_cholesky":
        counts["hp.cholesky.calls"] += 1
    elif key == "spectral.min_eig_for_support":
        counts["spectral.supports_certified"] += 1
    elif key == "recovery.l0_solve":
        counts["recovery.l0.supports_examined"] += out.supports_examined
    elif key == "szego.szego_reproduce":
        counts["szego.reproduce.calls"] += 1
    elif key == "szego.legendre_nodes":
        counts["szego.quad_nodes"] += args[0]


class Tracer:
    """Counts and per-bucket self seconds, accumulated until ``reset``."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []

    def reset(self):
        self.counts = Counter()
        self.self_s = Counter()

    def _wrap(self, fn, key, bucket, node_cache):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == "szego.legendre_nodes" and tuple(args[:2]) not in node_cache:
                self.counts["szego.legendre_nodes.misses"] += 1
            if bucket is None:
                out = fn(*args, **kwargs)
            else:
                frame = [0.0]
                self._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._stack.pop()
                    self.self_s[bucket] += dt - frame[0]
                    if self._stack:
                        self._stack[-1][0] += dt
            _count(self.counts, key, args, out)
            return out

        return wrapper

    def install(self):
        """Rebind every wrapped function wherever a srflimits module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "srflimits" or name.startswith("srflimits."))]
        # the program's own Legendre node cache, read to count misses
        node_cache = getattr(sys.modules["srflimits.szego"], "_NODE_CACHE", {})
        for mod_name, qualname, bucket in WRAPPED:
            owner = sys.modules[f"srflimits.{mod_name}"]
            key = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name, None)
                if hasattr(cls, attr):
                    setattr(cls, attr, self._wrap(getattr(cls, attr), key, bucket, node_cache))
                continue
            fn = getattr(owner, qualname, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, key, bucket, node_cache)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
