import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_studies.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_studies", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = load_tool()

MANIFEST = {
    "command": "study",
    "config": {"num_samples": 40, "N_list": [1, 3, 6], "output_dir": "out/a"},
    "timings_sec": {"nominal": 0.01, "propagate": 0.2},
    "counters": {
        "rhs_evaluations": 400,
        "march_blocks": 1,
        "oracle_iterations": 120,
        "derivative_rows": {"march": 280, "oracle": 160, "oracle_values": 0},
    },
}


def written(path: Path, manifest: dict) -> Path:
    path.mkdir()
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path / "manifest.json"


def with_counters(**changes) -> dict:
    return {**MANIFEST, "counters": {**MANIFEST["counters"], **changes}}


def test_manifests_match_but_for_timings_output_dir_and_block_count(tmp_path):
    other = with_counters(march_blocks=2)
    other["timings_sec"] = {"nominal": 0.02, "propagate": 0.1, "block_estimate": 0.06}
    other["config"] = {**MANIFEST["config"], "output_dir": "out/b"}
    a, b = written(tmp_path / "a", MANIFEST), written(tmp_path / "b", other)
    assert compare.same_file(a, b)


def test_manifests_differing_in_march_rows_do_not_match(tmp_path):
    rows = {**MANIFEST["counters"]["derivative_rows"], "march": 283}
    other = with_counters(march_blocks=2, derivative_rows=rows)
    a, b = written(tmp_path / "a", MANIFEST), written(tmp_path / "b", other)
    assert not compare.same_file(a, b)


def test_samples_with_appended_columns_are_extended(tmp_path):
    old, new, cut = tmp_path / "old", tmp_path / "new", tmp_path / "cut"
    for directory in (old, new, cut):
        directory.mkdir()
    (old / "samples.csv").write_text("theta_1,N1_m_1\n0.5,0.25\n")
    (new / "samples.csv").write_text("theta_1,N1_m_1,oracle_m_1\n0.5,0.25,0.24\n")
    (cut / "samples.csv").write_text("theta_1\n0.5\n")
    assert compare.extended(old / "samples.csv", new / "samples.csv")
    assert not compare.extended(old / "samples.csv", cut / "samples.csv")
    assert not compare.same_file(old / "samples.csv", new / "samples.csv")
