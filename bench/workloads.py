"""Workloads of the repo benchmark: which campaign, at what scale, and why.

Plain data only, so the runner can read it without importing the program.
Every workload drives one of the paper's campaigns through its public driver
function on the serial paths (no capture or session pools).

``sample_s`` is the wall time of one sample, spawn to exit, measured on the
reference machine (2 vCPU AMD EPYC, Python 3.11).  The runner divides
``--seconds`` by it to fix how many samples a run takes, so the count, and
with it the set of campaign seeds a run covers, depends on the arguments
alone and never on how fast the code under test is.
"""

SCHEME_V1 = "sha256-v1"
SCHEME_V3 = "splitmix64-batch-v3"

#: Seed a run uses when none is given: the paper's year, the seed the goldens
#: are captured under.
DEFAULT_SEED = 2016

#: The network profile every workload captures under.
PROFILE = "cable-intl"

WORKLOADS = {
    "plt-full-v3": {
        "driver": "plt",
        "scheme": SCHEME_V3,
        "scale": {"sites": 100, "loads": 5, "participants": 1000},
        "sample_s": 0.55,
        "why": "Sec. 5.2 PLT timeline campaign at paper scale on the fastest RNG path, "
               "with warehouse ingest; cost spread over capture, sessions and ingest",
    },
    "plt-full-v1": {
        "driver": "plt",
        "scheme": SCHEME_V1,
        "scale": {"sites": 100, "loads": 5, "participants": 1000},
        "sample_s": 1.05,
        "why": "the same campaign under the default sha256-v1 scheme every archived "
               "result uses; task assignment and per-participant sessions dominate",
    },
    "h1h2-ab": {
        "driver": "h1h2",
        "scheme": SCHEME_V3,
        "scale": {"sites": 100, "loads": 5, "participants": 1000},
        "sample_s": 0.75,
        "why": "Sec. 5.3 HTTP/1.1 vs HTTP/2 A/B campaign: h1 and h2 captures per site, "
               "A/B sessions with control pairs, warehouse written then read back",
    },
    "stream-resume": {
        "driver": "stream",
        "scheme": SCHEME_V3,
        "scale": {"sites": 20, "loads": 3, "participants": 10000,
                  "chunk_size": 256, "stop_after_chunks": 20},
        "sample_s": 2.4,
        "why": "10,000-participant streaming campaign killed halfway and resumed from "
               "its checkpoint; capture is under 2%, so capture-layer changes show no change",
    },
}

#: Scale of the smoke test: the same code paths at a few percent of the work.
TINY_SCALE = {
    "plt": {"sites": 5, "loads": 2, "participants": 20},
    "h1h2": {"sites": 5, "loads": 2, "participants": 20},
    "stream": {"sites": 5, "loads": 2, "participants": 20,
               "chunk_size": 4, "stop_after_chunks": 2},
}
