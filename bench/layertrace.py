"""Layer spans for the traced run, recorded from outside quivalg.

``Tracer.install`` replaces each traced function by a wrapper at every
quivalg module that binds it, and each traced method on its class.  A
wrapper records one span (layer name, parent span, start, end) per call;
spans stay in memory until ``write`` stores them at the end of the run.
``layer_metrics`` turns the spans into the per-layer metrics: self time
(span minus its child spans), call counts and elimination cells.
"""

import functools
import sys
import time

# (module, attribute or Class.method, span name).  Both RowSolver builds and
# rref are eliminations; gabriel_quiver and radical_generators both reach
# the cached Gabriel computation of a BasicAlgebra.
TARGETS = (
    ("enumeration", "admissible_relation_sets", "enumeration.relation_sets"),
    ("enumeration", "canonical_form", "enumeration.canonical_form"),
    ("monomial", "MonomialAlgebra.__init__", "monomial.build"),
    ("linalg", "rref", "linalg.elim"),
    ("linalg", "RowSolver.__init__", "linalg.elim"),
    ("representations", "homological_status", "representations.status"),
    ("representations", "injective_envelope", "representations.envelope"),
    ("representations", "quotient_by", "representations.quotient"),
    ("representations", "socle", "representations.socle"),
    ("representations", "hom_space", "representations.hom_space"),
    ("homological", "dominant_dimension", "homological.domdim"),
    ("homological", "minimal_faithful_proj_inj", "homological.proj_inj"),
    ("homological", "double_centralizer_check", "homological.dc"),
    ("nakayama", "uniserial_module", "nakayama.uniserial"),
    ("nakayama", "kupisch_to_algebra", "nakayama.kupisch_to_algebra"),
    ("endo", "EndomorphismContext.endo_algebra", "endo.endo_algebra"),
    ("endo", "EndomorphismContext.compose_coords", "endo.compose"),
    ("endo", "gabriel_quiver", "endo.gabriel"),
    ("endo", "BasicAlgebra.radical_generators", "endo.gabriel"),
    ("endo", "is_qf2_algebra", "endo.qf2"),
    ("endo", "monomial_basic_algebra", "endo.corner"),
    ("cli", "parse_algebra", "cli.parse"),
    ("cli", "main", "cli.main"),
    ("verify", "algebra_facts", "verify.facts"),
)

# metric name -> span name.
SELF_TIME = {
    "enumeration.relation_sets_s": "enumeration.relation_sets",
    "enumeration.canonical_form_s": "enumeration.canonical_form",
    "monomial.build_s": "monomial.build",
    "linalg.elim_s": "linalg.elim",
    "representations.status_s": "representations.status",
    "representations.envelope_s": "representations.envelope",
    "representations.quotient_s": "representations.quotient",
    "representations.socle_s": "representations.socle",
    "representations.hom_space_s": "representations.hom_space",
    "homological.domdim_s": "homological.domdim",
    "homological.proj_inj_s": "homological.proj_inj",
    "homological.dc_s": "homological.dc",
    "nakayama.uniserial_s": "nakayama.uniserial",
    "nakayama.kupisch_to_algebra_s": "nakayama.kupisch_to_algebra",
    "endo.endo_algebra_s": "endo.endo_algebra",
    "endo.gabriel_s": "endo.gabriel",
    "endo.qf2_s": "endo.qf2",
    "endo.corner_s": "endo.corner",
    "cli.parse_s": "cli.parse",
    "cli.self_s": "cli.main",
    "verify.facts_self_s": "verify.facts",
}
CALLS = {
    "enumeration.canonical_form_calls": "enumeration.canonical_form",
    "monomial.build_calls": "monomial.build",
    "linalg.elim_calls": "linalg.elim",
    "representations.status_calls": "representations.status",
    "representations.envelope_calls": "representations.envelope",
    "representations.hom_space_calls": "representations.hom_space",
    "homological.domdim_calls": "homological.domdim",
    "endo.compose_calls": "endo.compose",
    "endo.qf2_calls": "endo.qf2",
}
COUNTS = ("linalg.elim_cells", "homological.domdim_terms")
RATIOS = ("linalg.elim_nonzero_share",)


def metric_units():
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in sorted(set(SELF_TIME) | set(CALLS) | set(COUNTS) | set(RATIOS)):
        units[name] = "s" if name in SELF_TIME else "ratio" if name in RATIOS else "count"
    return units


def _matrix_size(args, kwargs):
    """(cells, nonzero entries) of the matrix given to rref(mat, ncols) or
    RowSolver(rows, ncols)."""
    mat = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if mat:
        ncols = len(mat[0])
    return len(mat) * (ncols or 0), sum(1 for row in mat for x in row if x)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # span: (name id, parent index or -1, start ns, end ns, cells, nonzero)
        self.spans = []
        self._stack = []
        self.missing = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, name, sized):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if sized:
                cells, nonzero = _matrix_size(args[1:] if sized == "method" else args, kwargs)
            else:
                cells = nonzero = 0
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end, cells, nonzero)

        return functools.wraps(func)(traced)

    def install(self):
        """Wrap every target in the loaded quivalg modules for the rest of
        the process.  Targets that no longer exist are listed in
        ``missing``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "quivalg" or key.startswith("quivalg."))]
        for module_name, attr, span in TARGETS:
            home = sys.modules.get(f"quivalg.{module_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(home, owner_name, None) if home is not None else None
            if owner is None or (method and not hasattr(owner, method)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            sized = None
            if span == "linalg.elim":
                sized = "method" if method else "function"
            if method:
                setattr(owner, method, self._wrap(owner.__dict__[method], span, sized))
                continue
            wrapped = self._wrap(owner, span, sized)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is owner:
                        setattr(module, key, wrapped)

    def layer_metrics(self, rounds):
        """Per-layer metrics per round, with 0 where a layer did no work."""
        nnames = len(self.names)
        self_ns = [0] * nnames
        calls = [0] * nnames
        child_ns = [0] * len(self.spans)
        cells = nonzero = 0
        domdim_id = self._name_ids.get("homological.domdim")
        envelope_id = self._name_ids.get("representations.envelope")
        domdim_terms = 0
        for name_id, parent, start, end, c, nz in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            cells += c
            nonzero += nz
            calls[name_id] += 1
            if name_id == envelope_id and self._has_ancestor(parent, domdim_id):
                domdim_terms += 1
        for index, (name_id, _, start, end, _, _) in enumerate(self.spans):
            self_ns[name_id] += end - start - child_ns[index]

        def by_name(values, name):
            i = self._name_ids.get(name)
            return values[i] if i is not None else 0

        out = {}
        for metric, name in SELF_TIME.items():
            out[metric] = by_name(self_ns, name) / 1e9 / rounds
        for metric, name in CALLS.items():
            out[metric] = by_name(calls, name) / rounds
        out["linalg.elim_cells"] = cells / rounds
        out["homological.domdim_terms"] = domdim_terms / rounds
        out["linalg.elim_nonzero_share"] = nonzero / cells if cells else 0.0
        return out

    def _has_ancestor(self, index, name_id):
        while index >= 0:
            span = self.spans[index]
            if span[0] == name_id:
                return True
            index = span[1]
        return False

    def write(self, path):
        """One line per span: index, parent, name, start ns, end ns, cells,
        nonzero entries."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\tcells\tnonzero\n")
            for index, (name_id, parent, start, end, c, nz) in enumerate(self.spans):
                fh.write(f"{index}\t{parent}\t{self.names[name_id]}\t{start}\t{end}\t{c}\t{nz}\n")
