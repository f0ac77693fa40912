"""The package's surface: every function the traced benchmark wraps must still
exist under its probed name, and every export must have a caller in the package."""
import importlib
import importlib.util
import io
import tokenize
from pathlib import Path

import declab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_probe_target_resolves():
    spans = load_spans()
    missing = []
    for span, owner, attr, _ in spans.PROBES:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            # methods are wrapped through the class __dict__, so they must be defined there
            target = vars(getattr(target, class_name, object))
            found = callable(target.get(attr))
        else:
            found = callable(getattr(target, attr, None))
        if not found:
            missing.append(f"{span}: {owner}.{attr}")
    assert not missing, missing


def test_lattice_and_node_map_layers_stay_probed():
    # the face lattice, jitter, node map and circumcenter spans locate the
    # jittered suite's time; each must keep a probe
    probed = {(owner, attr) for _, owner, attr, _ in load_spans().PROBES}
    assert {("declab.complex", "build_complex"),
            ("declab.generators", "jitter_interior"),
            ("declab.quadrature:QuadratureRule", "physical_points"),
            ("declab.geometry", "circumcenter")} <= probed


def test_every_export_has_a_caller_in_the_package():
    # a name counts where a module other than __init__.py reads it: in code,
    # not in a string or comment, and not as the name of its def or class
    used = set()
    for path in Path(declab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        after_def = False
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and not after_def:
                used.add(tok.string)
            after_def = tok.type == tokenize.NAME and tok.string in ("def", "class")
    assert sorted(set(declab.__all__) - used) == []
