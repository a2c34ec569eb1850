"""Every exported name exists, every exported function that spends budget
takes a ledger with no default, no value with one use is a parameter, no
module imports a name it never uses, every definition is exported or read,
and the benchmark's tracer finds every layer boundary it wraps except the
one known to be missing."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dips

MODULES = sorted(f"dips.{info.name}"
                 for info in pkgutil.iter_modules(dips.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def _exported_callables():
    """(qualified name, callable) for every function and class that a
    module's ``__all__`` names, and every public method of those classes."""
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if not callable(obj):
                continue
            yield f"{name}.{attr}", obj
            if inspect.isclass(obj):
                for meth in vars(obj):
                    method = getattr(obj, meth)
                    if not meth.startswith("_") and callable(method):
                        yield f"{name}.{attr}.{meth}", method


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # a builtin without a signature
        return {}


# the releases that spend budget, and the parameters that have one value in
# use and so are module constants
LEDGER_TAKERS = {
    "dips.param_synth.md_synthesizer", "dips.param_synth.bbmr_synthesizer",
    "dips.param_synth.modips_release", "dips.hist_synth.perturb_histogram",
    "dips.hist_synth.smooth_histogram",
    "dips.hist_synth.laplace_sanitizer_crosstab",
}
CONSTANTS = {
    "dips.inference.combine": {"level"},
    "dips.inference.firth_logistic": {"max_iter", "tol"},
    "dips.inference.fit_multinomial_logit": {"max_iter", "tol"},
    "dips.param_synth.BernoulliModel": {"prior_a", "prior_b"},
    "dips.param_synth.GaussianMixtureModel": {"prior_alpha"},
    "dips.param_synth.modips_release": {"allocation"},
    "dips.hist_synth.smooth_histogram": {"label"},
    "dips.harness.simulate_truth_sim3": {"rho"},
    "dips.harness.simulate_truth_sim4": {"rho"},
}


def test_every_ledger_is_required_and_no_constant_is_a_parameter():
    exported = dict(_exported_callables())
    takers = {name for name, obj in exported.items()
              if "ledger" in _parameters(obj)}
    assert LEDGER_TAKERS <= takers
    defaulted = [name for name in takers
                 if _parameters(exported[name])["ledger"].default
                 is not inspect.Parameter.empty]
    assert defaulted == []
    assert CONSTANTS.keys() <= exported.keys()
    regained = {name: names & set(_parameters(exported[name]))
                for name, names in CONSTANTS.items()}
    assert all(not names for names in regained.values()), regained


def _unused_imports(path: Path) -> list[str]:
    """The names the module at ``path`` imports and never reads.  A name
    in ``__all__``, a package ``__init__``'s re-export and a
    ``__future__`` import count as used, and so does a name read in an
    annotation."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not (
                node.module == "__future__"
                or (path.name == "__init__.py" and node.level)):
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(Path(dips.__file__).parent.glob(
    "*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path) == []


def test_every_definition_is_exported_or_read():
    """A module-level function or class is in its module's ``__all__`` or
    is read, as a name or an attribute, somewhere in the package, so a
    deleted caller leaves no helper behind."""
    defined, read = [], set()
    for name in MODULES:
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
        defined += [(name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in getattr(module, "__all__", ())]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{name}.{attr}" for name, attr in defined if attr not in read]
    assert dead == []


def test_tracer_finds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    for name in MODULES:
        importlib.import_module(name)
    from perfbench.tracing import Tracer

    tracer = Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    # the tracer still looks for the Laplace draw where it lived before the
    # one-sanitizer refactor; moving that boundary is a benchmark change
    assert missing == ["dips.param_synth.sample_laplace"]
