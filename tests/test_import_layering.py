"""Import layering: what each entry point loads, checked in a fresh
interpreter.

A package ``__init__`` imports nothing of a sibling subsystem, so
``import repro.serve.server`` loads the detection stack and not the
simulator, and one scenario module loads no other case.  Each check
runs in its own subprocess because the test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PACKAGE_DIR = SRC_DIR / "repro"

#: Subsystems the detection server runs without.
NOT_IN_SERVER = (
    "repro.scenarios",
    "repro.traffic",
    "repro.adversary",
    "repro.ml",
    "repro.analysis",
    "repro.economics",
    "repro.runner",
    "repro.booking",
    "repro.sms",
    "urllib.request",
)

#: Scenario modules that Case A does not build on.
NOT_IN_CASE_A = tuple(
    f"repro.scenarios.{name}"
    for name in (
        "case_b", "case_d", "case_e", "portfolio", "detectors",
        "behavioural",
    )
)


def run_fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(module: str) -> List[str]:
    return run_fresh(
        f"import json, sys\nimport {module}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )


def within(modules: List[str], roots) -> List[str]:
    return [
        name for name in modules
        if any(name == root or name.startswith(root + ".")
               for root in roots)
    ]


def test_server_loads_no_simulator():
    assert within(loaded_by("repro.serve.server"), NOT_IN_SERVER) == []


def test_case_a_loads_no_other_case():
    assert within(loaded_by("repro.scenarios.case_a"), NOT_IN_CASE_A) == []


def test_clustering_loads_only_the_standardiser_of_ml():
    loaded = loaded_by("repro.core.detection.clustering")
    assert within(loaded, ("repro.ml",)) == [
        "repro.ml", "repro.ml.standardize"
    ]


def test_each_package_imports_first():
    """Every package ``__init__``, the server and the CLI import as the
    first ``repro`` import: a cycle that eager ``__init__`` imports
    used to hide shows up as an ImportError here."""
    names = sorted(
        ".".join(init.parent.relative_to(SRC_DIR).parts)
        for init in PACKAGE_DIR.rglob("__init__.py")
    ) + ["repro.serve.server", "repro.cli"]
    failures = run_fresh(
        "import importlib, json, sys\n"
        f"names = {names!r}\n"
        "failures = {}\n"
        "for name in names:\n"
        "    for key in [key for key in sys.modules\n"
        "                if key == 'repro' or key.startswith('repro.')]:\n"
        "        del sys.modules[key]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as error:\n"
        "        failures[name] = repr(error)\n"
        "print(json.dumps(failures))"
    )
    assert len(names) > 20
    assert failures == {}


def test_nothing_imported_on_the_hot_path(tmp_path):
    """After a service is built, ingest (across a checkpoint), finish,
    the digest and every view import nothing: a deferred import would
    land inside the timed ingest window."""
    from repro.scenarios.case_a import CaseAConfig, run_case_a
    from repro.serve.service import ingest_payload
    from repro.sim.clock import DAY

    log = run_case_a(CaseAConfig(
        seed=3,
        visitor_rate_per_hour=5.0,
        attack_start=1 * DAY,
        cap_at=None,
        departure_time=4 * DAY,
        target_capacity=120,
        attacker_target_seats=60,
    )).world.app.log
    events = ingest_payload(list(log.iter_entries())[:1_500])
    events_path = tmp_path / "events.json"
    events_path.write_text(json.dumps(events))
    report = run_fresh(
        "import json, sys\n"
        "from repro.serve.service import DetectionService\n"
        "from repro.serve.state import StateStore\n"
        f"events = json.loads(open({str(events_path)!r}).read())\n"
        f"store = StateStore({str(tmp_path / 'serve.db')!r})\n"
        "service = DetectionService(store, checkpoint_interval=512)\n"
        "before = set(sys.modules)\n"
        "for start in range(0, len(events), 64):\n"
        "    service.ingest(events[start:start + 64], seq=start)\n"
        "service.finish()\n"
        "digest = service.analysis_digest()\n"
        "views = [service.verdicts_view(), service.campaigns_view(),\n"
        "         service.entities_view(), service.status_view()]\n"
        "checkpoints = store.snapshot_seq()\n"
        "store.close()\n"
        "print(json.dumps({'gained': sorted(set(sys.modules) - before),\n"
        "                  'checkpoint': checkpoints,\n"
        "                  'bots': sum(v['is_bot'] for v in views[0]),\n"
        "                  'digest': digest}))"
    )
    assert report["checkpoint"] >= 512
    assert report["bots"] > 0
    assert len(report["digest"]) == 64
    assert report["gained"] == []
