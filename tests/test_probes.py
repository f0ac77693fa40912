"""Every function the traced benchmark wraps must still exist under its probed name."""
import importlib
import importlib.util
from pathlib import Path

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
