"""Golden digests of the command line: every verb's stdout, bytewise.

Each invocation in ``CALLS`` runs in-process through :func:`repro.cli.main`
in the listed order (``workload replay`` reads what ``workload generate``
recorded; ``obs runs`` and ``obs compare`` read what ``obs alerts``
archived). Its stdout, with the temporary directory and the run store's
timestamps masked, is reduced to one SHA-256 and pinned next to the exit
status. ``PARSES`` pins the namespace ``build_parser().parse_args(argv)``
returns for every parser path, as sorted JSON.

The Workbench verbs (``measure``, ``explore``, ``netcut``, ``estimators``,
``pareto``) pretrain networks before they print, so they are pinned at
parse level only; ``tests/test_cli_integration.py`` runs them.

The digests were recorded before the parser was rebuilt around one table
of shared flags. That rebuild must leave every flag's name, dest, type,
default and choices, and every verb's stdout, unchanged. The ``profile``
digests were re-recorded when the verb moved onto
:func:`repro.device.profile_network` and lost its ``--warmup`` flag.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re

import pytest

from repro.cli import build_parser, main

#: name -> (argv, exit status, SHA-256 of the masked stdout)
CALLS = {
    "zoo": (
        "zoo", 0,
        "a29164d5a4ec216459a4c8533fa59c637084fa360fd6ff155595e701343b79b5"),
    "figures": (
        "figures", 0,
        "610d998e313fdb278df65eb9b4b3e55224d64e94a02617615df8350267ce5a3c"),
    "netcut_build": (
        "netcut build", 0,
        "a368df4991537aa74e71529bc5ba92b5feb3a7b39633f009ac4911b97c3b9dd9"),
    "netcut_build_save": (
        "netcut build --net mobilenet_v1_0.25 --device nano "
        "--strategy greedy --strategy halp --max-rungs 3 "
        "--deadline-ms 0.5 --save {tmp}/front", 0,
        "a606c1485f91a351135205ae387243ed94620ebc81e0eeb274e642d1b27646e7"),
    "netcut_build_frac": (
        "netcut build --net v2_1.4 --device agx_boosted "
        "--strategy dp-depth --deadline-frac 0.8", 0,
        "390c13eac1c0e415d14353a5c3dab77795eac7c70f2e43a7adf4aac6c700b07f"),
    "netcut_online": (
        "netcut online", 0,
        "89e0942a93bb01e7ab29c3a40de80f67433011e9762cf8456c37bc0d9e175bb1"),
    "netcut_online_svr": (
        "netcut online --method svr --factor 3.0 --verbose", 0,
        "19655a7531adcf74d2f47ef48c73d9e5969cb5328680d051e1d9a0bf5bcbf9c0"),
    "serve": (
        "serve --deadline-ms 0.9 --trace poisson", 0,
        "4fe9020524eb154cc7ca62ea2ae3f8ed44975b9abcf8124561afab717a00228b"),
    "serve_uniform": (
        "serve --trace uniform --no-ladder --requests 200 "
        "--max-batch 4 --seed 3", 0,
        "aa62681d943fa5c4b6e6859ac96003bf1e5d97574c2358e25f10f31f1f4ee3e9"),
    "serve_execute": (
        "serve --execute --requests 40", 0,
        "93bb8902e7a8c1ec233f9002f9ce9592c7901c3dbd20ca13ad8c09dccefe9f7b"),
    "profile": (
        "profile", 0,
        "b2d28d04ba4e6401e4c033de5831b0c7a314baa3cb94731443fbbbb1f62396c0"),
    "profile_cutpoint": (
        "profile --net resnet --cutpoint 3", 0,
        "47e85e650226b8766532baff425c4a3142783f1a5b09f522d606310c867d2b4c"),
    "profile_top": (
        "profile --top 5 --runs 20", 0,
        "5ecec9e4c9e280276fa1d4796c9df16e342ffbfe0e6bc835cd85ea91500b3f5b"),
    "trace_export": (
        "trace --out {tmp}/serve.jsonl "
        "--chrome {tmp}/serve.trace.json", 0,
        "cdd7d4e9b74d08e4c2cfe205b7de70ca0573349f8c0a9cfdd360cba8d5039291"),
    "trace_drift": (
        "trace --requests 200 --drift-threshold 0.1 --buffer 1000 "
        "--seed 1", 0,
        "86402197f26cea0ea5779df4cb5513e21fbe5e9bb6c899d9352d9f8d8a3c747c"),
    "faults_compare": (
        "faults --scenario straggler-storm --compare", 0,
        "99a569b246063569def9a9f3a58988b6ce7132da8c5fc194472b2cf17fde077a"),
    "faults_verbose": (
        "faults --scenario rung-failure --verbose", 0,
        "b4169693fda39c9811fd751c3a97043c8d9ba6683ab6c7adbd9b54a24eb07de4"),
    "faults_undefended": (
        "faults --scenario mixed --no-resilience "
        "--rung mobilenet_v1_0.5-cut0", 0,
        "82efdfcde52b17e601f98b0edf186ded02f8210df4ad9de841fe8eb09623a7dd"),
    "cluster": (
        "cluster --replicas 3 --policy p2c-deadline", 0,
        "541fefb0c8abf24a0e981ce05f7c96d799e459a814cdef4d38068d293f36d14d"),
    "cluster_devices": (
        "cluster --device xavier --device nano --device nano", 0,
        "1ea01b70a7ecf1bff18d19d531e3773fab9c7e348fd53343977ece3dcf20d62e"),
    "cluster_kill": (
        "cluster --kill-replica 0", 0,
        "d2dcf220b2760d57188de54e6abc161961a52bfa0d53357b4bd79a7748106fa7"),
    "cluster_autoscale": (
        "cluster --autoscale --replicas 4", 0,
        "8a037e2884c74c46fab48d32bd488fb63b5eaa491d41484a2e78feedac6231b9"),
    "cluster_jsq": (
        "cluster --replicas 2 --policy jsq --requests 500 --rate 3000 "
        "--max-batch 4 --net mobilenet_v1_0.25", 0,
        "264dc3b5762a62b0632c208dde5af75b47cf211cf305e48e3b5fc95e965e2e72"),
    "workload_generate": (
        "workload generate --kind diurnal-flash --tenants --fair "
        "--out {tmp}/run.jsonl", 0,
        "6788f8b9117303b7bcb88084a01fd634c992728632182a41e4d4997968789509"),
    "workload_replay": (
        "workload replay {tmp}/run.jsonl --tenants --fair", 0,
        "99ed88f23f4e370a74385297effe58af87bdb4d1d22c4a9651b231eaa695f8e1"),
    "workload_generate_mmpp": (
        "workload generate --kind mmpp --no-ladder --horizon-ms 100 "
        "--base-rate 2000 --queue-capacity 16 --seed 4", 0,
        "67add10d9630105f84a5b8a9e4b93afe7f88a6f19d401dee1fb2c5498a1d4db3"),
    "workload_fluid": (
        "workload fluid", 0,
        "093a3200ddc254146f1d15049435a4ea44342c275755d2b54fed54206c8ecbd9"),
    "workload_fluid_sweep": (
        "workload fluid --tenants --sweep 10,25,50,100", 0,
        "fee8301d98bb859512dcc1b66f2dfd187517a069bb3318f2259c7ac14d9410b4"),
    "workload_fluid_plan": (
        "workload fluid --tenants --plan-miss 0.02 --rung 1", 0,
        "3b87a312531892fa2a7ac9fd7d4c20513cc7199bc44f06801098f6ef68ad7d70"),
    "obs_expose": (
        "obs expose", 0,
        "5525dee2ac43b47be9f6162348859f5f966d845f249490a9b9e71f5d69a6810e"),
    "obs_expose_json": (
        "obs expose --json {tmp}/telemetry.json --requests 200 "
        "--sample-ms 2.0", 0,
        "ba9f9ab5413c5c4b221cb3c42e3330ca348fbd2173b8406e8c40157d575d4ef6"),
    "obs_alerts": (
        "obs alerts --scenario straggler-storm "
        "--store {tmp}/RUNSTORE.sqlite", 0,
        "d98f40ff8bde0d68f20548e167a51dedcbd2cf40604965652cc62636301980ce"),
    "obs_alerts_firing": (
        "obs alerts --store {tmp}/RUNSTORE.sqlite --seed 3 "
        "--requests 400", 1,
        "02e2d68e7c076d6f67e0219322383bbad092a81b2aeea17d40f21805ecec91b3"),
    "obs_runs": (
        "obs runs --store {tmp}/RUNSTORE.sqlite", 0,
        "ad8042ee7515641388f67999aaa1e22c754cecb7e683531d8b00a188db19c24b"),
    "obs_runs_kind": (
        "obs runs --store {tmp}/RUNSTORE.sqlite --kind bench.serve", 0,
        "96817a19f4692d7a6f4e1480dc3f790c037188342f1b1fec7009e79c2bcba310"),
    "obs_compare": (
        "obs compare 1 2 --store {tmp}/RUNSTORE.sqlite", 0,
        "5ad28214b9d399c6535a9747025290921bd9da395eb4c19fd0cad3a68483b37c"),
    "obs_gate_pass": (
        "obs gate --baselines {tmp}/baselines "
        "--current {tmp}/baselines", 0,
        "64bb404b9d9ee8f6719326016213b7cfde2c8195d12fd370b36fae13b99ee572"),
    "obs_gate_fail": (
        "obs gate --baselines {tmp}/baselines "
        "--current {tmp}/doctored --top 3", 1,
        "529d88c505398ba861656fd54d9fd91c67d6a2ee3509b82f50a5bf292bf70d1f"),
}

#: name -> (argv, SHA-256 of the sorted-JSON namespace)
PARSES = {
    "zoo": (
        "zoo",
        "b6443c927f89b35d8854b4de32e56349684e4e436998ebf85febf1fb252ae6ca"),
    "measure": (
        "measure --net mobilenet_v1_0.25",
        "05e6e948e1316aa416e51b29133d8e2ed600f795ce67e139e943f06fcb80d788"),
    "explore": (
        "explore --force",
        "91832e9e9465fc94d7e01f66f17ba3da0d445e40a09fb7404629a8e1a416351a"),
    "netcut": (
        "--networks mobilenet_v1_0.5 --networks resnet50 netcut "
        "--deadline 1.0",
        "7c342772b746bb833df3b5300880667e7206842cf57919b3dbe48a6b1106c93f"),
    "netcut_quick": (
        "--quick netcut",
        "d5c5e4d91c042fe9c4990cc7843858bca41a04355445535f92a5d95c5beb0886"),
    "netcut_build": (
        "netcut build",
        "71dfd7e7f0de3a0e77e25aab7d0740f9844c547aaf2fd9305ce76072f65ec813"),
    "netcut_online": (
        "netcut online",
        "556434ce025f2196084819d1313b1faa73cf8c8580f588a2aef19479b3889cef"),
    "estimators": (
        "--hands-images 60 --head-epochs 6 estimators",
        "38ff2f8c862047a2b0a6627a9c62002f58211b97c0262904189531bd67b8e635"),
    "figures": (
        "figures",
        "480125f1bd4a9332a903f5ac520799210115663bbe39e0a6fadf9aa06cc704cd"),
    "pareto": (
        "--cache-dir cache pareto --deadline 0.5",
        "ffbc80d569c28ffc3c654bb03a8cda54f3ff2e4edc6bb21ba000ac46087efebd"),
    "serve": (
        "serve",
        "8829a6148c8db0024cb45ce257bfce125aabaa589c862847df564436388ace1d"),
    "profile": (
        "profile",
        "414cfb789e1b7a216f5579bd767e625270930418f693db729f3a4cf498919918"),
    "trace": (
        "trace",
        "797fc234a94d02323ac2588564d9654f5d5a48742456544183b4cbc2a2aa53a6"),
    "faults": (
        "faults",
        "542f021204f730e85eae4641f5c9129bd879a3431ffb71b3bdd8018bd2d5a635"),
    "cluster": (
        "cluster",
        "33b6bd9713361c1814b33927b77893c2e5b0f5cf6dc8fd96686fd0edca03ce73"),
    "workload_generate": (
        "workload generate",
        "66248188e50d231718b12cb9e67dc4edc554b42b8c91f10cafe130142b168052"),
    "workload_replay": (
        "workload replay run.jsonl",
        "11e108ce31e0987746eee57375d8fa14354947b0d3f27f9e124af2304dfe26cf"),
    "workload_fluid": (
        "workload fluid",
        "8386d3e4f2c98c73330e1704f16794060c71709d3816b66ddcbef138d0174583"),
    "obs_expose": (
        "obs expose",
        "9d242ac1e35715b6be57dc0d4daa5ea90d1645adaa1bb35de1deaa26ba5c8354"),
    "obs_alerts": (
        "obs alerts",
        "9937628f20917ed11af9a6aa16188cfda26a9a730c7c7d19cc120dfd1ff45846"),
    "obs_gate": (
        "obs gate",
        "fdb1dfddf88fb206db60c9e4a554345ea837f0e1a6ce9d68da6a22ce87ff5c29"),
    "obs_runs": (
        "obs runs",
        "bcc6192d2d9f8bb488f2e2ac861a65b8fbe34efcaac6c8309841a63af5f6f9db"),
    "obs_compare": (
        "obs compare 1 2",
        "73fd3e17fb53a48557a1d053ddfa103b86c05def564601aaaf11535b752ce552"),
    # every flag set: integer-looking values tell int, float and str apart
    "measure_flags": (
        "measure --net resnet --deadline 2",
        "545d0ff9dd7fa14a4c92e4bd8b605d2da0f0823f8758755d7cedf41a0109c0a9"),
    "netcut_flags": (
        "--networks resnet50 --hands-images 7 --head-epochs 3 "
        "--cache-dir c --quick netcut --deadline 2 --estimator linear",
        "bf138f59f2d841549a39c7e615ad2ab6016a062ae92e31940d2e2a6c5815a7fa"),
    "netcut_build_flags": (
        "netcut build --net resnet --device nano --strategy halp "
        "--strategy greedy --max-rungs 3 --deadline-ms 2 "
        "--deadline-frac 1 --save d",
        "dab6f9f7ed09c7b837a1c11dd06c70785c8cc1b5e763623e234b4f5435f9e735"),
    "netcut_online_flags": (
        "netcut online --net resnet --deadline-ms 2 --requests 9 "
        "--rate 70 --max-rungs 3 --factor 4 --method svr --seed 5 "
        "--verbose",
        "1766a253e39d7a0b64a4868460f7897b1bab9cd17d096e290dc5441901b4db36"),
    "serve_flags": (
        "serve --deadline-ms 2 --trace uniform --net resnet "
        "--requests 9 --rate 70 --max-batch 2 --max-rungs 3 "
        "--no-ladder --execute --seed 5",
        "1aea870082c5fb59f991981b84abee85f82d7e9b2cade460f194e8d9a6d9bc2a"),
    "profile_flags": (
        "profile --net resnet --cutpoint 1 --runs 4 --top 3 --seed 5",
        "ab17ff9e862d722fb01bff1b88903190dba309804b608a4af0c7fdf572368df8"),
    "trace_flags": (
        "trace --net resnet --deadline-ms 2 --requests 9 --rate 70 "
        "--max-rungs 3 --buffer 64 --drift-threshold 1 --out a "
        "--chrome b --seed 5",
        "a159631710240c3eb0f938e3d00198da868ebf748c6137cf33b75c486a3b55f5"),
    "faults_flags": (
        "faults --scenario mixed --net resnet --deadline-ms 2 "
        "--requests 9 --rate 70 --max-rungs 3 --rung x --rung y "
        "--compare --no-resilience --verbose --seed 5",
        "97a6462dedcdad81c24d1cdd8980f85ecac498e6faf97fe93f855de5a103f181"),
    "cluster_flags": (
        "cluster --replicas 2 --policy jsq --device nano "
        "--device xavier --net resnet --deadline-ms 2 --requests 9 "
        "--rate 70 --max-rungs 3 --max-batch 2 --autoscale "
        "--kill-replica 1 --seed 5",
        "19e0b0831724d625d171264b03b4bc554ed58b6a40cdbe6628168de946b8a245"),
    "workload_generate_flags": (
        "workload generate --net resnet --deadline-ms 2 --max-rungs 3 "
        "--queue-capacity 8 --no-ladder --tenants --fair "
        "--watermark 1 --seed 5 --kind mmpp --base-rate 70 "
        "--horizon-ms 50 --out a",
        "5d783503b379fd5ec2252508da613cdf0791aca2212efd66efe0d0335ba30944"),
    "workload_replay_flags": (
        "workload replay a --net resnet --deadline-ms 2 --max-rungs 3 "
        "--queue-capacity 8 --no-ladder --tenants --fair "
        "--watermark 1 --seed 5",
        "e64b8947bf01d6f0bac6af1b2731586df2223497e95c644791889cdd725bb353"),
    "workload_fluid_flags": (
        "workload fluid --net resnet --deadline-ms 2 --max-rungs 3 "
        "--queue-capacity 8 --no-ladder --tenants --fair "
        "--watermark 1 --seed 5 --kind flash --base-rate 70 "
        "--horizon-ms 50 --replicas 2 --rung 1 --sweep 1,2 "
        "--plan-miss 1",
        "1eab9976e9a013cfc1fa157bc8a8b6391b19ff0bc15acfe8d5f993462b64c9c8"),
    "obs_expose_flags": (
        "obs expose --net resnet --requests 9 --rate 70 --max-rungs 3 "
        "--sample-ms 2 --deadline-ms 2 --json a --seed 5",
        "654bbc391989506e654d06a14e1ff89abae2bc3bc96f7efb722777c376fe140b"),
    "obs_alerts_flags": (
        "obs alerts --net resnet --requests 9 --rate 70 --max-rungs 3 "
        "--sample-ms 2 --deadline-ms 2 --scenario mixed "
        "--miss-budget 1 --fast-ms 2 --slow-ms 3 --store a --seed 5 "
        "--fault-seed 6",
        "0d99705170a4b2e18d6cef06c26011d7e855b0771f6ccf4ad9e61f3a872b8c3a"),
    "obs_gate_flags": (
        "obs gate --baselines a --current b --top 3",
        "34eca104e60a735a0a237745692f8b8fdcc63b483a6ed36e8672c2402fcc5586"),
    "obs_runs_flags": (
        "obs runs --store a --kind b",
        "2e265af0468f8993269de5ef031040a41093a97b85f2a03fdb820425cf8e4d87"),
    "obs_compare_flags": (
        "obs compare 1 2 --store a --top 3",
        "f7db96f80f6f8876ceb3e4e7048980062cf2ed48511afd6276581098bbf73962"),
}

SERVE_BENCH = {"results": {"serve_1x": {
    "miss_rate": 0.05, "admitted_rps": 1000.0, "p99_ms": 2.5}}}

STAMP = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def invoke(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def run_calls(tmp: str) -> dict[str, tuple[int, str]]:
    """Run every entry of ``CALLS`` in order under the directory ``tmp``."""
    doctored = json.loads(json.dumps(SERVE_BENCH))
    doctored["results"]["serve_1x"]["admitted_rps"] = 1.0
    for name, payload in (("baselines", SERVE_BENCH),
                          ("doctored", doctored)):
        os.makedirs(os.path.join(tmp, name), exist_ok=True)
        with open(os.path.join(tmp, name, "BENCH_serve.json"), "w") as fh:
            json.dump(payload, fh)
    results = {}
    for name, (argv, _, _) in CALLS.items():
        code, out = invoke([a.format(tmp=tmp) for a in argv.split()])
        out = STAMP.sub("<stamp>", out.replace(tmp, "<tmp>"))
        results[name] = (code, sha(out))
    return results


def parse_digest(argv: str) -> str:
    namespace = vars(build_parser().parse_args(argv.split()))
    # the handler bound to the parser path is a function, not a flag
    namespace.pop("func", None)
    return sha(json.dumps(namespace, sort_keys=True))


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_calls(str(tmp_path_factory.mktemp("cli")))


@pytest.mark.parametrize("name", list(CALLS))
def test_stdout_is_pinned(outcomes, name):
    assert outcomes[name] == CALLS[name][1:]


@pytest.mark.parametrize("name", list(PARSES))
def test_namespace_is_pinned(name):
    argv, digest = PARSES[name]
    assert parse_digest(argv) == digest, \
        json.dumps(vars(build_parser().parse_args(argv.split())),
                   sort_keys=True, default=str)
