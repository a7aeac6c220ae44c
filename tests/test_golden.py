"""Golden outputs: seeded commands keep producing the same bytes.

Each command below runs through ``cli.dispatch`` and writes its outputs to
files.  The sha256 of every file is compared with a value recorded before
the engine switched its in-memory configuration identity from digests to
configuration tuples.  A change that moves one of these hashes changes a
seeded trace, model, table or report, and has to say so and why.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from buildtuner.cli import dispatch

STRATEGIES = ("bayesian", "crowd", "random")


def _commands(root) -> list[list[str]]:
    """The seeded commands, in order; later ones read earlier outputs."""
    data = str(root / "data.jsonl")
    graph = str(root / "space.json")
    rules = str(root / "rules-noise.json")
    out = lambda name: str(root / name)
    commands = []
    oracles = {
        "dataset": ["--oracle", f"dataset:{data}"],
        "exhaustive": ["--oracle", f"synthetic:{rules}", "--graph", graph],
        "pool": ["--oracle", f"synthetic:{rules}", "--graph", graph,
                 "--candidate-mode", "pool", "--pool-size", "40"],
    }
    for kind, oracle in oracles.items():
        for strategy in STRATEGIES:
            tag = f"run-{kind}-{strategy}"
            commands.append(["run", *oracle, "--strategy", strategy,
                             "--bootstrap", "8", "--budget", "15", "--seed", "5",
                             "--out", out(f"{tag}.jsonl"),
                             "--model-out", out(f"{tag}.model.json")])
    for fmt in ("csv", "json"):
        commands.append(["eval", "--data", data, "--sizes", "10,20,30",
                         "--reps", "3", "--bootstrap", "8", "--seed", "4",
                         "--format", fmt, "--out", out(f"eval.{fmt}")])
    commands += [
        ["auprc", "--data", data, "--reps", "2", "--selections", "20",
         "--bootstrap", "8", "--seed", "6", "--out", out("auprc.json")],
        ["importance", "--model", out("run-exhaustive-bayesian.model.json"),
         "--out", out("importance.csv")],
        ["importance", "--data", data, "--smoothing", "0.5", "--format", "json",
         "--out", out("importance-data.json")],
        ["heatmap", "--data", data, "--threshold", "0.6",
         "--out-dir", out("heatmap")],
        ["simulate", "--graph", graph, "--rules", rules, "--sample", "60",
         "--workers", "3", "--latency", "lognormal", "--seed", "5",
         "--out", out("simulate.json")],
        ["simulate", "--graph", str(root / "graph.json"),
         "--rules", str(root / "rules.json"), "--data", data, "--workers", "2",
         "--latency", "lognormal", "--seed", "3", "--out", out("simulate-data.json")],
        ["summary", "--data", data, "--format", "json",
         "--out", out("summary.json")],
        ["summary", "--data", data, "--out", out("summary.txt")],
    ]
    return commands


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("golden")
    assert dispatch([
        "gen-synthetic", "--packages", "6", "--versions", "3",
        "--target-rate", "0.3", "--rule-density", "0.5", "--seed", "11",
        "--out-graph", str(root / "graph.json"),
        "--out-rules", str(root / "rules.json"),
        "--emit-data", str(root / "data.jsonl"),
    ]) == 0
    assert dispatch([
        "gen-synthetic", "--packages", "8", "--versions", "3",
        "--target-rate", "0.2", "--rule-density", "0.5", "--seed", "12",
        "--out-graph", str(root / "space.json"),
        "--out-rules", str(root / "space-rules.json"),
    ]) == 0
    # Noise exercises the oracle's per-configuration hash.
    payload = json.loads((root / "space-rules.json").read_text())
    payload["noise"] = 0.05
    (root / "rules-noise.json").write_text(json.dumps(payload))
    for argv in _commands(root):
        assert dispatch(argv) == 0, argv
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


GOLDEN = {
    "auprc.json": "2abdbc3bbf84dada6f673699e047f228839541036ad6cf39ad5779fe00cb609d",
    "data.jsonl": "7aa9fcb0b85e17281212e1bb515b6f7c4206770f6a8bcfa65d2156dfd9b658b0",
    "eval.csv": "9af39025ccfd151a99a8f02ca9290f5b4515c812d71b9b5319e6ebaeec419e14",
    "eval.json": "936b0dc4b2d1c2c3550575b5abe571b08befaf302bd6c194a567a264094ec709",
    "graph.json": "95dacb3d3b3e42a03240be4ed2d9066fe00b751862665e1d0c1426ebbfb5ea28",
    "heatmap/constraints.json": "1ca843b6c0e23e47b7be8768e2bf30edd97c2596330716baa9f34a3968cc3de9",
    "heatmap/dep01+dep02.csv": "d9b5746ad6406c99835f7a4a6fd91e82c50037a9c17091ce50fef534d4a39434",
    "heatmap/dep01+dep04.csv": "5ffed9492883e698a2957b96a59f2b47468cddb26f5fd6c4a2c9623995304907",
    "heatmap/root+dep01.csv": "a44f0c58080e594b675516c5bcb7feb0505f1837e728a158c5c66987f4dece1e",
    "heatmap/root+dep03.csv": "19e980e955406c574eaa0e2f99af97263ef6b1d577ded7f26e9e519d802c5155",
    "heatmap/root+dep05.csv": "19e980e955406c574eaa0e2f99af97263ef6b1d577ded7f26e9e519d802c5155",
    "importance.csv": "427809921f88d19b65418b87ee396efa3fd64a7ca1f9eb0daf68617117d6d99f",
    "importance-data.json": "915a2dd80c41cd23f72dd5194a3a5c55ac42ab19bd54230be59f97a3d73be352",
    "rules-noise.json": "7b60a221a5e157784a5c5599b72e1b4e5760c954d9aef6447d6a35aa014b44bd",
    "rules.json": "d72d173ed114fdc93161f32cfff4e6287c9e6de0df4ae329051230251a96ba78",
    "run-dataset-bayesian.jsonl": "e70253fe207ad317d40ce62c8ac6fe5e7ac30d9932960e651e74b55dbf99bdd9",
    "run-dataset-bayesian.model.json": "683af7a9ebeda84ad9bb53ebcdb83ae6d1799ed61cd3424afff0db865572b116",
    "run-dataset-crowd.jsonl": "919496c0ab71687e11d7fcb40c8bdbef596f8e4fff1fb362cfae966a2be0cb15",
    "run-dataset-crowd.model.json": "c7f06fa9957330ad0ca52e6e8b3ebab3e9127df0c6f46866d026b051e9def2b7",
    "run-dataset-random.jsonl": "4d610d43ef0bf56a0c0ad6388ea82aaa478df5b8445ff1cf4d616034128c8602",
    "run-dataset-random.model.json": "b6aab9564c394a83cc1c8add4048f429331f58378b6a6d518142083b4cacc698",
    "run-exhaustive-bayesian.jsonl": "f1fa341b379666830fc318b1ae6f3a8dcfce200f468eaf8007bb7dc8702f87d6",
    "run-exhaustive-bayesian.model.json": "612f7352864417de0d1f47253c706b9247f0e5c4622cd1f30b0f543f4bdfb5a7",
    "run-exhaustive-crowd.jsonl": "178b52487a5c84e3c9d9f540304a15177890c16d56f8e1e5ffcac89293a1b0ee",
    "run-exhaustive-crowd.model.json": "11dd7e11074e93f5026e31c8329a0edb49a99b7750a5ea57fd66944059b5d799",
    "run-exhaustive-random.jsonl": "b6d4a93b534ec503a26b676897bb67e9d72ad5795e90bf1e3cdd374ae89e6dc3",
    "run-exhaustive-random.model.json": "49791ef9693d8fcba0440564934780f3c171ddf3c40697db211de1dd512dda89",
    "run-pool-bayesian.jsonl": "02188acc6a4772f2829faf893f403e83a12a71fe6b347378254ea4574d6cc42c",
    "run-pool-bayesian.model.json": "778aaae7d16c417d12135edeb21385691434eca38ebb9a113dd886721ffe4b41",
    "run-pool-crowd.jsonl": "4b61e4fdc675c8a5c3c909504161b1520ad45350cb82dacae91c7b4463bbf8a0",
    "run-pool-crowd.model.json": "54e10351fee8fe35a61d2414f52ce6b3aaf3840481677d6e21761c61fbddc963",
    "run-pool-random.jsonl": "4fa52a88565b8dcd9b5dc01c3783871cb501ab21bd1f27cc4fc162ffec0881c0",
    "run-pool-random.model.json": "5932e379f237955a4e4e2244372dcffd5d239cfceaf80fd4decb20567f3cdbc3",
    "simulate.json": "45f66c81991a082318353bfa005cacb71aa4a1661febc48f0dd3af27c05c548e",
    # Recorded later, before build_dag took a dataset's rows directly.
    "simulate-data.json": "09997221891d2104f75a64b7c16ab02aa1485c99fadb51b358baa0ac26cc661d",
    "space-rules.json": "de3f3fb2e1a7a642b0647d0dc7fedc8489b676b4eea069c025836a9497d41281",
    "space.json": "66798754aaffea954871fc24f18549940e5a22917a185fd71ec9be05f58c7e36",
    "summary.json": "2db997b263e363a0b5c2fa1bc44dfbda37754dd550642f878043ee99cd6ad5bb",
    # Recorded later, before the summary counts stopped going through a
    # DatasetSummary.
    "summary.txt": "8890cd87741d4b1e5e55a79912239f5fef9e2aed0287b83fbd8ee4546bdd8248",
}


def test_outputs_are_the_recorded_set(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(produced, name):
    assert produced[name] == GOLDEN[name]
