import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_experiment_smoke(tmp_path, capsys):
    desk = load_script("run_desk_experiment")
    out = tmp_path / "desk.json"
    assert desk.main(["--seeds", "1", "--duration", "300", "--trees", "5", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["seed"] for r in rows] == [0]
    assert 0.0 <= rows[0]["defended_accuracy"] <= 1.0
    assert rows[0]["byte_overhead"] > 0
    assert "mean" in capsys.readouterr().out
