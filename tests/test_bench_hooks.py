"""The benchmark's tracer reaches package functions by name and argument
position; a rename or a changed call must fail here, not leave a traced
layer reading 0."""

import importlib.util
import random
from pathlib import Path

from saii import alphabet, construct, fasta, fmindex, serialize

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

LAYERS = {
    "alphabet.encode_text",
    "fasta.parse_fasta",
    "construct.build.standard",
    "construct.build.prefetch",
    "construct.step",
    "construct.prefetch_step",
    "occtable.occ_count",
    "occtable.rebuild_from",
    "packedbuf.insert",
    "packedbuf.count_range",
    "packedbuf.count_code",
    "fmindex.search",
    "serialize.dumps_index",
    "serialize.loads_index",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_calls():
    tracing = load_tracing()
    tracer = tracing.Tracer(span_cap=0)
    tracing.add_saii_layers(tracer)
    rng = random.Random(8)
    sequence = "".join(rng.choice("ACGT") for _ in range(300))
    k = 64
    with tracer.installed():
        (record,) = fasta.parse_fasta(">r\n" + sequence + "\n")
        text = alphabet.encode_text(record.sequence)
        for schedule in ("standard", "prefetch"):
            index = construct.build(text, k, schedule)
        built = tracer.counts()
        loaded = serialize.loads_index(serialize.dumps_index(index))
        assert fmindex.search(loaded, alphabet.encode_text(sequence[100:120])).count >= 1
    counts = tracer.counts()
    assert set(counts) == LAYERS
    assert all(calls > 0 for calls, _ in counts.values())
    # blocks completed by the two builds: the text plus sentinel is 301 symbols
    assert built["occtable.rebuild_from"][1] == 2 * (301 // k)
