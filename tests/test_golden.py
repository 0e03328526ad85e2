"""Byte-identity goldens: the sha256 of every file three small experiments write.

The digests were captured before traces became columnar, and the wide-cover
ones before cover injection drew through a replay of raw generator words.
That replay is gone; the plain draw loop that took its place writes the
same bytes. A change that alters any report or trace byte fails here; if
the format is meant to change, the change says why and the digests are
captured again.
"""

import hashlib
import json
import random

import pytest

from segshield.report import run_experiment

SYNTH_COVER = {
    "seed": 5,
    "duration_s": 300,
    "devices": ["bulb-like", "plug-like", "doorbell-like"],
    "n_trees": 10,
    "cover": {"enabled": True, "reference": "plug-like"},
}

# One cover window of 5000 s: 5e9 µs is above 2**32, so each cover offset
# takes two words of generator output.
SYNTH_WIDE_COVER = {
    "seed": 9,
    "duration_s": 300,
    "devices": ["bulb-like", "plug-like", "camera-like"],
    "n_trees": 10,
    "cover": {"enabled": True, "reference": "camera-like", "window_s": 5000},
}

RECORDED = {
    "seed": 2,
    "traces": ["sensor.jsonl", "hub.csv"],
    "n_trees": 10,
}

GOLDEN = {
    "synth-cover": {
        "metrics.csv": "42c3739f8ccc27eb4bd91584b83de8f0c94fd9eb029433569dad839f2dfae451",
        "overhead.csv": "f1fcc68d803d1f931a79eba41ed02d7a106c4d83be9c9d89f6ea89f527766f67",
        "report.json": "2c205b5c121d9dca07c9ed47c56f774fdb1b7c6cab5ccc1a15dd9c02585f5b4c",
        "traces/bulb-like.padded.jsonl": "eed14ff7eca5a6bf1b53f6ac3557d6d65c67f991c688486688adca1c2d6c7387",
        "traces/bulb-like.segmented.jsonl": "fee6429f0f2d1195c0f54e08607d85a8cb52f73eea96bbe6e03cd801039a00a4",
        "traces/bulb-like.undefended.jsonl": "feb6bae4b46b7a19f50d202181f335d218d8e8d4b04304232c0066f33aa5ea84",
        "traces/doorbell-like.padded.jsonl": "d85e46650dfcae0b78e0382ba27de88ed233e504bdec1265f9f1d69b0afd8dc3",
        "traces/doorbell-like.segmented.jsonl": "9f5888c44fa9af8cd8b688b86d72c24fe46f37f9162f1228250e28569cc41035",
        "traces/doorbell-like.undefended.jsonl": "08a97c2da54966228e87996c0d227aa4f785557b97b4f7564fd8d827fbaf139f",
        "traces/plug-like.padded.jsonl": "5db9e09bfd1bf747087b28ffb058c6dc1feab34d6c3916815b56e962d48775c3",
        "traces/plug-like.segmented.jsonl": "514541d47ab058065ae1cef28e64651f2f507058711c67ef4a5c9037475772d8",
        "traces/plug-like.undefended.jsonl": "08e1c580c7e28bc24a9c8e3053f938aa28011d91f983a7074d752a3b997b416a",
    },
    "synth-wide-cover": {
        "metrics.csv": "9fa974aa822e663aa6f1d198ae00fb5c5501901be1a2e757e47be1055c6ec919",
        "overhead.csv": "f44a101d0f9bab3709d2c7c2d74ce683340a0bcd3b862a423e026611ab2e3ff4",
        "report.json": "b7fad9ee136c100e0b3d65b52159dc7f23a331f7ab0d508ad98754deab9155c4",
        "traces/bulb-like.padded.jsonl": "a5be0958315a2296d612ee44d521cf7f92b5fce1b39eaac4e55c2e3f96418439",
        "traces/bulb-like.segmented.jsonl": "4146b32d2f196b71228d23dea775fed22d4287f831611d7fb340fe5cde4f7860",
        "traces/bulb-like.undefended.jsonl": "59f0a95eceeb3b2c81b4e180e563c0c1342c4f7131c7c2140a2c55e40d92cb52",
        "traces/camera-like.padded.jsonl": "348bce1df9c03306a9046fedf3df9ae96f7ab5ab34224d8fce9e874f33a21597",
        "traces/camera-like.segmented.jsonl": "192fb3cb24c1d7cce0aa29aafc2789d5113f2542a91b9b5d1cb20cbfc6f87cbe",
        "traces/camera-like.undefended.jsonl": "5a1eacab3267afb4742ba6ea4d272c662d4147155d9e7cdaba04b06e1b7f83ca",
        "traces/plug-like.padded.jsonl": "03eb89f531615285858437cfed63f9f529b4474e7127c1b8a2979f907612820e",
        "traces/plug-like.segmented.jsonl": "72f1fd34b2a9ad7cf180415e22ad6e8a4efde2ac8e713ddd3df672819f177e0f",
        "traces/plug-like.undefended.jsonl": "cb5b6829b497ee874bec14d3ffd2aba908cb6bbee874f027493d8e508491e81b",
    },
    "recorded": {
        "metrics.csv": "4590021c6f76c995ad6aad3619ad7c6e371d69a36fed29693131138449c1f314",
        "overhead.csv": "ce335f605a7ee5ccf9772b9eb71116d67cf9acf5af0613796dae663e965391b9",
        "report.json": "675bf007a870616a6b8f0586de9a60ddcefffd983804c146ce0742425209cde7",
        "traces/hub.padded.jsonl": "f4c9d7ff60b22863e02143216e0b2b37c52626b1cca6f77330efdba7b76cf363",
        "traces/hub.segmented.jsonl": "dd886596d1c1e157d33a9dff8c7f1fb357f524430a9a91ba07d4a1f584e79ef1",
        "traces/hub.undefended.jsonl": "5edc9d8a849cf024e8d7fa07b1c95333d295a92ce2bead401068d1e8434f136c",
        "traces/sensor.padded.jsonl": "c7ae01929e2826c8aaaf8374e0c9acbe1dcd3be6979845807aed33154ee8a994",
        "traces/sensor.segmented.jsonl": "bb309304d0a273db4e13d2951079673fbe3e29f9462c951639c9614500a4bee2",
        "traces/sensor.undefended.jsonl": "96ce0a95772590652458e70f3f9e95be907e5512e491ea1768feed1ef16f5a28",
    },
}


def _write_inputs(directory):
    """A JSONL and a CSV trace, written without segshield, 300 s each."""
    rng = random.Random(17)
    rows = []
    t = 0
    while True:
        t += rng.randrange(1, 400_000)
        if t >= 300_000_000:
            break
        rows.append((t, rng.choice([96, 130, 402]) * rng.choice([1, 1, -1])))
    with open(directory / "sensor.jsonl", "w") as fh:
        for ts, size in rows:
            fh.write(
                json.dumps(
                    {"covered": False, "device": "sensor", "signed_size": size, "timestamp_us": ts}
                )
                + "\n"
            )
    with open(directory / "hub.csv", "w") as fh:
        fh.write("timestamp_us,signed_size,covered,device\n")
        t = 0
        while True:
            t += rng.randrange(1, 250_000)
            if t >= 300_000_000:
                break
            size = rng.choice([96, 118, 130, 610]) * rng.choice([1, -1])
            fh.write(f"{t},{size},0,hub\n")


def _digests(out):
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize(
    "name,config",
    [("synth-cover", SYNTH_COVER), ("recorded", RECORDED), ("synth-wide-cover", SYNTH_WIDE_COVER)],
)
def test_outputs_match_golden_digests(tmp_path, monkeypatch, name, config):
    # Trace paths are relative, so report.json does not depend on tmp_path.
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    run_experiment(config, "out")
    assert _digests(tmp_path / "out") == GOLDEN[name]
