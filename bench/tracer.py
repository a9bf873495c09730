"""In-memory span tracer that wraps the engine's functions from outside.

Nothing in ``src/qtwist`` knows about this module.  `Tracer.install` replaces
each traced function at every name it is bound under in the loaded
``qtwist`` modules (a function imported into several modules is wrapped in
each), and swaps the ``cached_property`` builds of the twist and R-matrix
for timed copies.  Spans are kept in memory with their parent ids; self time
is a span's duration minus the durations of its direct children, which is
exact because the engine runs single-threaded at ``jobs=1``.

Some hooks reach private names (``Algebra._mono_mul``, ``verify._finish``,
``verify._NULL_PLANE_CHECKS`` and the kernel cache dicts).  When one is
missing the metrics it feeds are left out of the summary and the hook is
listed in `Tracer.absent`, so a refactor of the engine never fails the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

# Public functions whose spans are reported, by module.  Every public
# function of `linalg` is folded into the single span name "linalg".
_FUNCTIONS = {
    "algebra": ("exp_truncated", "series_apply"),
    "model": ("validate_spec", "derive_alpha", "choose_xi"),
    "specfile": ("parse_spec_file",),
    "cli": ("render_report_machine",),
}
_METHODS = {
    ("algebra", "Algebra"): ("mul_tensors", "mul_elements"),
    ("hopf", "HopfContext"): ("coproduct", "coproduct_on_leg", "twisted_coproduct"),
}
_BUILDS = ("phi", "phi_inverse", "universal_r")

# The twelve residual checks, in suite order; a workload that does not run
# one reports zeros for it.
CHECK_NAMES = (
    "classical-limit",
    "cybe",
    "alpha-exchange",
    "classical-basis",
    "hopf-axioms",
    "intertwining",
    "twist-equation",
    "triangularity",
    "qybe",
    "null-plane-commutators",
    "null-plane-coproducts",
    "null-plane-classical-basis",
)


def _pairs_over_order(a, b, order):
    """Term pairs of a product whose base powers already exceed the order."""
    ha = Counter(k for k, _ in a.terms)
    hb = Counter(k for k, _ in b.terms)
    return sum(ca * cb for ka, ca in ha.items() for kb, cb in hb.items() if ka + kb > order)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = Counter()
        self.mono_pairs = set()
        self.absent = []
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, sid, name=None):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        if name is not None:
            span[0] = name
        self._stack.pop()

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(sid, after(result) if after is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace `original` at every module-level name it is bound under."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qtwist" or modname.startswith("qtwist.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import qtwist.algebra
        import qtwist.cli
        import qtwist.hopf
        import qtwist.linalg
        import qtwist.model
        import qtwist.specfile
        import qtwist.verify

        mods = {
            "algebra": qtwist.algebra,
            "cli": qtwist.cli,
            "hopf": qtwist.hopf,
            "linalg": qtwist.linalg,
            "model": qtwist.model,
            "specfile": qtwist.specfile,
            "verify": qtwist.verify,
        }
        for modname, names in _FUNCTIONS.items():
            for name in names:
                fn = getattr(mods[modname], name, None)
                if fn is None:
                    self.absent.append(f"{modname}.{name}")
                    continue
                self._rebind(fn, self._timed(f"{modname}.{name}", fn))
        lin = mods["linalg"]
        for name, fn in list(vars(lin).items()):
            if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == lin.__name__:
                self._rebind(fn, self._counted("linalg", fn))

        for (modname, clsname), names in _METHODS.items():
            cls = getattr(mods[modname], clsname)
            for name in names:
                fn = cls.__dict__.get(name)
                if fn is None:
                    self.absent.append(f"{modname}.{clsname}.{name}")
                    continue
                self._set(cls, name, self._counted(f"{modname}.{name}", fn))

        alg_cls = mods["algebra"].Algebra
        mono_mul = alg_cls.__dict__.get("_mono_mul")
        if mono_mul is None:
            self.absent.append("algebra.Algebra._mono_mul")
        else:
            counts, pairs = self.counts, self.mono_pairs

            def counted_mono_mul(alg, a, b):
                counts["algebra.mono_mul.calls"] += 1
                pairs.add((a, b))
                return mono_mul(alg, a, b)

            self._set(alg_cls, "_mono_mul", counted_mono_mul)

        hopf_cls = mods["hopf"].HopfContext
        for name in _BUILDS:
            prop = hopf_cls.__dict__.get(name)
            if not isinstance(prop, cached_property):
                self.absent.append(f"hopf.HopfContext.{name}")
                continue
            timed = cached_property(self._timed(f"hopf.build.{name}", prop.func))
            timed.__set_name__(hopf_cls, name)
            self._set(hopf_cls, name, timed)

        verify = mods["verify"]
        for name, fn in list(vars(verify).items()):
            if name.startswith("check_") and callable(fn):
                self._rebind(fn, self._check(fn))
        np_checks = getattr(verify, "_NULL_PLANE_CHECKS", None)
        if np_checks is None:
            self.absent.append("verify._NULL_PLANE_CHECKS")
        else:
            self._set(verify, "_NULL_PLANE_CHECKS", tuple(self._check(fn) for fn in np_checks))
        finish = getattr(verify, "_finish", None)
        if finish is None:
            self.absent.append("verify._finish")
        else:
            self._set(verify, "_finish", self._timed("verify.finish", finish))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _counted(self, name, fn):
        """A span of `name` around `fn` that also counts its calls.

        The products count the term pairs they visit (and, for tensors, the
        pairs already over the order); products and `coproduct_on_leg` count
        the terms they return.
        """
        counts = self.counts
        timed = self._timed(name, fn)
        visits_pairs = name in ("algebra.mul_tensors", "algebra.mul_elements")
        returns_terms = name in ("algebra.mul_tensors", "hopf.coproduct_on_leg")

        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            if visits_pairs:
                alg, a, b = args
                counts[f"{name}.pairs"] += len(a.terms) * len(b.terms)
                if name == "algebra.mul_tensors":
                    counts[f"{name}.pairs_over_order"] += _pairs_over_order(a, b, alg.order)
            result = timed(*args, **kwargs)
            if returns_terms:
                counts[f"{name}.out_terms"] += len(result.terms)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _check(self, fn):
        counts = self.counts

        def label(result):
            if result is None:
                return None
            counts[f"verify.{result.name}.residual_terms"] += result.residual_terms
            return f"verify.{result.name}"

        return self._timed(f"verify.{fn.__name__}", fn, after=label)

    # -- summary ---------------------------------------------------------------

    def self_times(self, duration):
        """Total self time and total time per span name.

        `duration(start, end)` gives a span's time, so that time the speed
        probe spent inside a span is left out and the rest is scaled.
        """
        times = [duration(start, end) for _, _, start, end in self.spans]
        child = defaultdict(float)
        for sid, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += times[sid]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for sid, (name, _, _, _) in enumerate(self.spans):
            self_s[name] += times[sid] - child[sid]
            total_s[name] += times[sid]
        return self_s, total_s

    def metrics(self, contexts, extra_contexts, duration):
        """Per-layer metrics: times from the spans, counts from the hooks.

        `contexts` are the HopfContexts the workload set up, and
        `extra_contexts` the ones its mutants built.  The twist and R term
        counts are read from the first, the cache sizes from both, at the end
        of the run.  `duration` is as for `self_times`.
        """
        everything = list(contexts) + list(extra_contexts)
        self_s, total_s = self.self_times(duration)
        c = self.counts
        out = {}
        absent = set(self.absent)
        mono_ok = "algebra.Algebra._mono_mul" not in absent
        for key in ("calls", "pairs", "pairs_over_order", "out_terms"):
            out[f"algebra.mul_tensors.{key}"] = c[f"algebra.mul_tensors.{key}"]
        out["algebra.mul_tensors.self_s"] = self_s["algebra.mul_tensors"]
        out["algebra.mul_elements.calls"] = c["algebra.mul_elements.calls"]
        out["algebra.mul_elements.pairs"] = c["algebra.mul_elements.pairs"]
        out["algebra.mul_elements.self_s"] = self_s["algebra.mul_elements"]
        if mono_ok:
            calls = c["algebra.mono_mul.calls"]
            out["algebra.mono_mul.calls"] = calls
            out["algebra.mono_mul.distinct"] = len(self.mono_pairs)
            out["algebra.mono_mul.reuse"] = 1 - len(self.mono_pairs) / calls if calls else 0.0
        algebras = {id(ctx.algebra): ctx.algebra for ctx in everything}.values()
        for cache, metric in (("_block_cache", "block_cache"), ("_single_cache", "single_cache")):
            if all(hasattr(alg, cache) for alg in algebras):
                out[f"algebra.{metric}.entries"] = sum(len(getattr(alg, cache)) for alg in algebras)
        out["algebra.exp_truncated.calls"] = sum(1 for s in self.spans if s[0] == "algebra.exp_truncated")
        out["algebra.exp_truncated.self_s"] = self_s["algebra.exp_truncated"]
        out["algebra.series_apply.self_s"] = self_s["algebra.series_apply"]

        for name in _BUILDS:
            if f"hopf.HopfContext.{name}" not in absent:
                out[f"hopf.build.{name}_s"] = total_s[f"hopf.build.{name}"]
        out["hopf.phi.terms"] = sum(len(ctx.phi.terms) for ctx in contexts)
        out["hopf.universal_r.terms"] = sum(len(ctx.universal_r.terms) for ctx in contexts)
        for name in ("coproduct", "coproduct_on_leg"):
            out[f"hopf.{name}.calls"] = c[f"hopf.{name}.calls"]
            out[f"hopf.{name}.self_s"] = self_s[f"hopf.{name}"]
        out["hopf.coproduct_on_leg.out_terms"] = c["hopf.coproduct_on_leg.out_terms"]
        out["hopf.twisted_coproduct.self_s"] = self_s["hopf.twisted_coproduct"]
        if all(hasattr(ctx, "_delta_cache") for ctx in everything):
            out["hopf.delta_cache.entries"] = sum(len(ctx._delta_cache) for ctx in everything)

        checks_ok = "verify._NULL_PLANE_CHECKS" not in absent
        for check in CHECK_NAMES:
            if check.startswith("null-plane") and not checks_ok:
                continue
            out[f"verify.{check}.self_s"] = self_s[f"verify.{check}"]
            out[f"verify.{check}.residual_terms"] = c[f"verify.{check}.residual_terms"]
        if "verify._finish" not in absent:
            out["verify.finish.self_s"] = self_s["verify.finish"]

        out["model.validate_spec.self_s"] = self_s["model.validate_spec"]
        out["model.derive_alpha.calls"] = sum(1 for s in self.spans if s[0] == "model.derive_alpha")
        out["model.derive_alpha.self_s"] = self_s["model.derive_alpha"]
        out["model.choose_xi.self_s"] = self_s["model.choose_xi"]
        out["linalg.calls"] = c["linalg.calls"]
        out["linalg.self_s"] = self_s["linalg"]
        out["specfile.parse_spec_file.self_s"] = self_s["specfile.parse_spec_file"]
        out["cli.render_report_machine.self_s"] = self_s["cli.render_report_machine"]
        return out
