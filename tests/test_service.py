"""Tests for the compile service: cache, job keys, coalescing, resilience.

Covers the PR's hard guarantees:

* the sharded LRU is deterministic, byte-size-bounded and counted;
* the content key covers the *full* canonical option set (the regression for
  the options-blind cache-key bug) and excludes non-semantic options;
* N identical concurrent requests trigger exactly one pool compile
  (coalescing);
* cache hits are byte-identical to fresh compiles, pinned against the frozen
  Fig 9/10 sha256 reference;
* worker crashes injected via ``REPRO_FAULTS`` surface as structured errors
  to exactly the affected requests without taking the server down;
* invalid options fail while the job is built, before any lookup or
  dispatch, on a cold cache and on a warm one.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_circuits.suite import get_benchmark
from repro.circuits.qasm import from_qasm, to_qasm
from repro.exceptions import (
    ServiceCompileError,
    ServiceError,
    ServiceRequestError,
)
from repro.experiments.benchmarks import (
    clear_compile_cache,
    compile_benchmark_cached,
)
from repro.experiments.toffoli import compile_configuration
from repro.hardware.library import by_name
from repro.hardware.topology import CouplingMap
from repro.runtime import Fault, FaultPlan, FailurePolicy
from repro.runtime.faults import FAULTS_ENV_VAR
from repro.service import (
    CompileJob,
    CompileRequest,
    CompileService,
    ServiceClient,
    ServiceHTTPServer,
    ShardedLRUCache,
    compile_job_key,
    execute_compile_job,
    topology_signature,
)
from repro.compiler.pipeline import TranspileOptions, transpile
from repro.passes.layout import Layout

REFERENCE = Path(__file__).parent / "data" / "fig9_10_compiled_sha256.json"


def canonical_bytes(circuit) -> str:
    """Same canonical form the frozen-reference freezer hashes."""
    lines = [f"{circuit.num_qubits}"]
    for inst in circuit.instructions:
        params = ",".join(float(p).hex() for p in inst.gate.params)
        qubits = ",".join(map(str, inst.qubits))
        clbits = ",".join(map(str, inst.clbits))
        lines.append(f"{inst.name}({params}) q{qubits} c{clbits}")
    return "\n".join(lines)


def circuit_digest(circuit) -> str:
    return hashlib.sha256(canonical_bytes(circuit).encode()).hexdigest()


def tiny_line(num_qubits: int = 5) -> CouplingMap:
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return CouplingMap(num_qubits, edges, name=f"tiny-line-{num_qubits}")


@st.composite
def option_sets(draw, like=None):
    """A pipeline name and valid ``transpile()`` keywords for it.

    Given ``like`` (another draw), the pipeline and level are kept and at
    most two options are redrawn, so equal resolutions are common.
    Values also repeat across draws: defaults spelled out, layouts in two
    key orders, non-semantic knobs.
    """
    if like is None:
        method, level, base = (
            draw(st.sampled_from(["baseline", "trios"])),
            draw(st.sampled_from([None, 0, 1, 3])),
            {},
        )
    else:
        method, base = like
        level = base.get("optimization_level")
        if level in (None, 1):
            level = draw(st.sampled_from([None, 1]))
    choices = {
        "seed": [2021, 7, None],
        "layout": [
            "greedy", "trivial", {0: 1, 1: 0, 2: 2}, {2: 2, 1: 0, 0: 1},
            Layout({0: 1, 1: 0, 2: 2}),
        ],
        "routing": ["stochastic", "greedy"],
        "noise_aware": [False],
        "validate": [True, False, "contracts"],
    }
    if method == "baseline":
        choices["toffoli_mode"] = [None, "6cnot", "8cnot"]
    else:
        choices["second_decomposition"] = [None, "mapping_aware", "6cnot"]
        choices["overlap_optimization"] = [None, True, False]
    if level == 3:
        choices["seed_trials"] = [None, 2, 4]
        choices["jobs"] = [1, 2, 0]
    redrawn = set(choices)
    if like is not None:
        redrawn = draw(st.sets(st.sampled_from(sorted(choices)), max_size=2))
    options = {} if level is None else {"optimization_level": level}
    for name, values in choices.items():
        if name not in redrawn:
            if name in base:
                options[name] = base[name]
        elif draw(st.booleans()):
            options[name] = draw(st.sampled_from(values))
    return method, options


# ----------------------------------------------------------------------
# ShardedLRUCache
# ----------------------------------------------------------------------
class TestShardedLRUCache:
    def test_lru_eviction_is_deterministic_and_size_bounded(self):
        # One shard, fixed 10-byte charge per entry, room for exactly 3.
        cache = ShardedLRUCache(
            max_bytes=30, shards=1, size_of=lambda k, v: 10, name="t1"
        )
        for key in ("a", "b", "c"):
            assert cache.put(key, key.upper())
        assert cache.get("a") == "A"  # freshen "a": now LRU order is b, c, a
        cache.put("d", "D")
        assert cache.get("b") is None  # the least recently used entry went
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.get("d") == "D"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.entries == 3
        assert stats.current_bytes <= 30

    def test_every_shard_respects_its_byte_budget(self):
        cache = ShardedLRUCache(
            max_bytes=400, shards=4, size_of=lambda k, v: 10, name="t2"
        )
        for index in range(500):
            cache.put(f"key-{index}", index)
        # Per-shard budget is 100 bytes = 10 entries; 4 shards <= 40 entries.
        assert len(cache) <= 40
        assert cache.stats().current_bytes <= 400
        assert cache.stats().evictions >= 460

    def test_oversize_value_rejected_not_inserted(self):
        cache = ShardedLRUCache(
            max_bytes=40, shards=4, size_of=lambda k, v: 1000, name="t3"
        )
        assert not cache.put("huge", "x")
        assert "huge" not in cache
        assert cache.stats().rejected_oversize == 1

    def test_hit_miss_counters(self):
        cache = ShardedLRUCache(max_bytes=1 << 20, name="t4")
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.get("absent") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.insertions) == (1, 1, 1)

    def test_clear_empties_but_keeps_counters(self):
        cache = ShardedLRUCache(max_bytes=1 << 20, name="t5")
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None
        assert cache.stats().hits == 1

    def test_same_key_always_same_shard(self):
        cache = ShardedLRUCache(max_bytes=1 << 20, shards=8, name="t6")
        shard = cache._shard_for("some-key")
        assert all(cache._shard_for("some-key") is shard for _ in range(10))


# ----------------------------------------------------------------------
# Content keys — the options-blind-key regression
# ----------------------------------------------------------------------
class TestCompileJobKeys:
    topo = ("line", 5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    qasm = "OPENQASM 2.0;"

    def key(self, method="baseline", **options):
        resolved = TranspileOptions.resolve(method, options)
        return compile_job_key(self.qasm, self.topo, resolved)

    def test_two_option_sets_never_collide(self):
        # The historical bug: (benchmark, topology, method, seed) ignored
        # every other option.  Each semantic knob must now split the key.
        base = self.key(seed=11)
        assert self.key(seed=11, optimization_level=0) != base
        assert self.key(seed=11, optimization_level=2) != base
        assert self.key(seed=11, toffoli_mode="8cnot") != base
        assert self.key(seed=11, layout="trivial") != base
        assert self.key(seed=11, routing="greedy") != base
        assert self.key("trios", seed=11, second_decomposition="6cnot") != (
            self.key("trios", seed=11)
        )

    def test_defaults_resolve_to_the_same_key(self):
        # Spelling out transpile()'s defaults must share the implicit key.
        assert self.key() == self.key(
            seed=2021, optimization_level=1, layout="greedy", routing="stochastic"
        )
        assert self.key(toffoli_mode="6cnot") == self.key()
        assert self.key("trios", second_decomposition="mapping_aware") == (
            self.key("trios")
        )
        # Level 3 resolves its default search width.
        assert self.key(optimization_level=3) == self.key(
            optimization_level=3, seed_trials=4
        )

    def test_non_semantic_options_do_not_fragment_the_key(self):
        assert self.key(validate=False) == self.key()
        assert self.key("trios", optimization_level=3, jobs=4) == self.key(
            "trios", optimization_level=3
        )

    def test_layout_dicts_canonicalise_order_independently(self):
        a = self.key(layout={0: 3, 1: 1, 2: 4})
        b = self.key(layout={2: 4, 0: 3, 1: 1})
        assert a == b
        assert a != self.key(layout={0: 3, 1: 1, 2: 2})
        assert a == self.key(layout=Layout({1: 1, 2: 4, 0: 3}))

    def test_methods_and_topologies_split_the_key(self):
        assert self.key("baseline") != self.key("trios")
        other = ("line", 5, ((0, 1), (1, 2), (2, 3), (0, 4)))
        default = TranspileOptions("baseline")
        assert compile_job_key(self.qasm, other, default) != self.key()

    def test_unknown_and_misdirected_options_rejected(self):
        circuit = get_benchmark("cnx_inplace-4")

        def job(method, **options):
            return CompileJob.from_circuit(circuit, tiny_line(), method, **options)

        with pytest.raises(ServiceRequestError, match="unknown transpile option"):
            job("baseline", opt_level=2)
        with pytest.raises(ServiceRequestError, match="has no effect"):
            job("trios", toffoli_mode="8cnot")
        with pytest.raises(ServiceRequestError, match="unknown compilation method"):
            job("nonsense")
        with pytest.raises(ServiceRequestError, match="calibration"):
            job("baseline", noise_aware=True)

    @pytest.mark.parametrize("name", ["optimization_level", "seed", "seed_trials", "jobs"])
    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_integer_options_reject_bool_float_and_str(self, name, value):
        # 1, True and 1.0 once rendered as three different keys.
        level = {} if name == "optimization_level" else {"optimization_level": 3}
        assert self.key(**level, **{name: np.int64(1)}) == self.key(**level, **{name: 1})
        with pytest.raises(ServiceRequestError, match=name):
            CompileJob.from_circuit(
                get_benchmark("cnx_inplace-4"), tiny_line(), "baseline",
                **level, **{name: value},
            )

    @given(st.data())
    @settings(max_examples=400)
    def test_keys_equal_exactly_when_resolved_options_equal(self, data):
        a_method, a_options = data.draw(option_sets())
        b_method, b_options = data.draw(
            st.one_of(option_sets(), option_sets(like=(a_method, a_options)))
        )
        a = TranspileOptions.resolve(a_method, a_options)
        b = TranspileOptions.resolve(b_method, b_options)
        same = replace(a, jobs=1, validate=True) == replace(b, jobs=1, validate=True)
        assert (self.key(a_method, **a_options) == self.key(b_method, **b_options)) == same

    def test_execute_compile_job_runs_the_jobs_own_options(self, monkeypatch):
        import repro.service.jobs as jobs_module

        circuit = get_benchmark("cnx_inplace-4")
        job = CompileJob.from_circuit(
            circuit, tiny_line(), "baseline", seed=7, toffoli_mode="8cnot"
        )
        received = []
        real = jobs_module.run_transpile

        def spy(circuit, target, options):
            received.append(options)
            return real(circuit, target, options)

        monkeypatch.setattr(jobs_module, "run_transpile", spy)
        result = execute_compile_job(job)
        assert len(received) == 1 and received[0] is job.options
        direct = transpile(
            circuit, tiny_line(), method="baseline", seed=7, toffoli_mode="8cnot"
        )
        assert result.method == direct.method == "baseline-8cnot"
        assert canonical_bytes(result.circuit) == canonical_bytes(direct.circuit)

    def test_seedless_stochastic_jobs_are_not_cacheable(self):
        circuit = get_benchmark("cnx_inplace-4")
        job = CompileJob.from_circuit(circuit, tiny_line(), "baseline", seed=None)
        assert not job.cacheable
        deterministic = CompileJob.from_circuit(
            circuit, tiny_line(), "baseline", seed=None, routing="greedy"
        )
        assert deterministic.cacheable
        assert CompileJob.from_circuit(circuit, tiny_line(), "baseline").cacheable

    def test_qasm_formatting_never_splits_the_key(self):
        circuit = get_benchmark("cnx_inplace-4")
        text = to_qasm(circuit)
        reformatted = "\n".join(line + "  " for line in text.splitlines())
        a = CompileJob.from_qasm(text, tiny_line(), "baseline")
        b = CompileJob.from_qasm(reformatted, tiny_line(), "baseline")
        assert a.key == b.key


# ----------------------------------------------------------------------
# The drivers as thin clients of the shared cache
# ----------------------------------------------------------------------
class TestDriverCache:
    def test_compile_benchmark_cached_options_split_entries(self):
        clear_compile_cache()
        coupling_map = tiny_line()
        level1 = compile_benchmark_cached("cnx_inplace-4", coupling_map, "baseline", 7)
        level0 = compile_benchmark_cached(
            "cnx_inplace-4", coupling_map, "baseline", 7, optimization_level=0
        )
        # Level 0 skips the clean-up loop: genuinely different output, which
        # the old options-blind key would have served from one entry.
        assert canonical_bytes(level0.circuit) != canonical_bytes(level1.circuit)
        again = compile_benchmark_cached(
            "cnx_inplace-4", coupling_map, "baseline", 7, optimization_level=0
        )
        assert canonical_bytes(again.circuit) == canonical_bytes(level0.circuit)

    def test_compile_benchmark_cached_hit_is_byte_identical(self):
        clear_compile_cache()
        coupling_map = tiny_line()
        first = compile_benchmark_cached("cnx_inplace-4", coupling_map, "trios", 3)
        second = compile_benchmark_cached("cnx_inplace-4", coupling_map, "trios", 3)
        assert second is first  # served from the in-process cache
        fresh = transpile(
            get_benchmark("cnx_inplace-4"), coupling_map, method="trios", seed=3
        )
        assert canonical_bytes(second.circuit) == canonical_bytes(fresh.circuit)

    def test_compile_configuration_matches_legacy_pipeline(self):
        # The Toffoli driver routes through the job API; its outputs must be
        # byte-identical to a direct transpile() (same options, same seed).
        clear_compile_cache()
        coupling_map = by_name("ibmq-johannesburg")
        placement = {0: 0, 1: 4, 2: 15}
        legacy = transpile(
            compile_configuration.__globals__["toffoli_test_circuit"](),
            coupling_map,
            method="trios",
            second_decomposition="mapping_aware",
            layout=placement,
            seed=1,
        )
        routed = compile_configuration(
            "Trios (8-CNOT Toffoli)", coupling_map, placement, seed=1
        )
        assert canonical_bytes(routed.circuit) == canonical_bytes(legacy.circuit)

    def test_unbounded_growth_is_gone(self):
        # The regression that motivated the PR: the driver cache must expose
        # a byte bound, not a bare dict.
        from repro.experiments import benchmarks as module

        assert isinstance(module._COMPILE_CACHE, ShardedLRUCache)
        assert module._COMPILE_CACHE.max_bytes > 0
        clear_compile_cache()
        assert len(module._COMPILE_CACHE) == 0


# ----------------------------------------------------------------------
# The service: coalescing, byte-identity, crash resilience, HTTP
# ----------------------------------------------------------------------
def make_request(seed=11, target="line-20", method="baseline", **options):
    qasm = to_qasm(get_benchmark("cnx_inplace-4"))
    return CompileRequest(
        qasm=qasm, target=target, method=method, options={"seed": seed, **options}
    )


class TestCompileService:
    def test_identical_concurrent_requests_compile_once(self):
        async def scenario():
            service = CompileService(pool_jobs=1, batch_window=0.02)
            await service.start()
            try:
                request = make_request()
                responses = await asyncio.gather(
                    *[service.compile(request) for _ in range(8)]
                )
            finally:
                await service.stop()
            return service, responses

        service, responses = asyncio.run(scenario())
        statuses = sorted(response.status for response in responses)
        assert statuses == ["coalesced"] * 7 + ["miss"]
        assert service.stats.pool_compiles == 1
        assert service.stats.coalesced == 7
        assert len({response.qasm for response in responses}) == 1
        assert len({response.key for response in responses}) == 1

    def test_cache_hits_byte_identical_to_frozen_reference(self):
        reference = json.loads(REFERENCE.read_text())["hashes"]

        async def scenario():
            service = CompileService(pool_jobs=1)
            await service.start()
            try:
                first = await service.compile(make_request(method="trios"))
                second = await service.compile(make_request(method="trios"))
            finally:
                await service.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == "miss" and second.status == "hit"
        assert second.qasm == first.qasm
        digest = circuit_digest(from_qasm(second.qasm))
        assert digest == reference["line-20|cnx_inplace-4|trios"]

    def test_injected_worker_crash_returns_structured_error(self, monkeypatch):
        # Two *distinct* concurrent requests so the batch reaches pool mode
        # (crash faults are inert in the runner's serial path by design).
        # Both cells crash on every attempt with no retry budget: each
        # requester gets a structured ServiceCompileError — and the server
        # itself keeps serving once the fault plan is lifted.
        plan = FaultPlan.of({0: [Fault("crash")], 1: [Fault("crash")]})
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())

        async def scenario():
            service = CompileService(
                pool_jobs=2,
                batch_window=0.05,
                policy=FailurePolicy(retries=0, on_error="skip"),
            )
            await service.start()
            try:
                outcomes = await asyncio.gather(
                    service.compile(make_request(seed=3)),
                    service.compile(make_request(seed=5)),
                    return_exceptions=True,
                )
                # The server survived the pool break: a fresh request
                # compiles normally once the plan is lifted.
                monkeypatch.delenv(FAULTS_ENV_VAR)
                followup = await service.compile(make_request(seed=7))
            finally:
                await service.stop()
            return service, outcomes, followup

        service, outcomes, followup = asyncio.run(scenario())
        for outcome in outcomes:
            assert isinstance(outcome, ServiceCompileError)
            assert outcome.status == "crashed"
            assert outcome.error_type == "WorkerCrash"
            assert outcome.attempts == 1
            assert "crashed" in str(outcome)
        assert followup.status == "miss"
        assert service.stats.errors == 2
        # Crashed results must never poison the cache.
        assert len(service.cache) == 1

    def test_crash_healed_by_retry_budget(self, monkeypatch):
        # The same pool-mode batch, but both cells crash only on their first
        # attempt: the FailurePolicy's retry budget heals the sweep and both
        # requesters see ordinary responses.
        plan = FaultPlan.of({
            0: [Fault("crash", attempts=(1,))],
            1: [Fault("crash", attempts=(1,))],
        })
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())

        async def scenario():
            service = CompileService(
                pool_jobs=2,
                batch_window=0.05,
                policy=FailurePolicy(retries=2, on_error="skip"),
            )
            await service.start()
            try:
                return await asyncio.gather(
                    service.compile(make_request(seed=3)),
                    service.compile(make_request(seed=5)),
                )
            finally:
                await service.stop()

        with pytest.warns(RuntimeWarning, match="worker process died"):
            responses = asyncio.run(scenario())
        for response in responses:
            assert response.status == "miss"
            assert response.attempts >= 2
            assert response.cnots > 0

    def test_uncacheable_requests_bypass_cache_and_coalescing(self):
        async def scenario():
            service = CompileService(pool_jobs=1)
            await service.start()
            try:
                first = await service.compile(make_request(seed=None))
                second = await service.compile(make_request(seed=None))
            finally:
                await service.stop()
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first.status == "uncached" and second.status == "uncached"
        assert service.stats.pool_compiles == 2
        assert len(service.cache) == 0

    def test_bad_requests_raise_service_request_error(self):
        async def scenario():
            service = CompileService(pool_jobs=1)
            await service.start()
            try:
                with pytest.raises(ServiceRequestError, match="unknown target"):
                    await service.compile(
                        CompileRequest(qasm="OPENQASM 2.0;", target="no-such-device")
                    )
                with pytest.raises(ServiceRequestError, match="unknown transpile"):
                    await service.compile(make_request(bogus_option=1))
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_invalid_options_rejected_before_dispatch(self):
        # Each of these once cost a pool dispatch (and a retry), compiled
        # anyway, or was served from the cache under the default key.
        bad = [
            ("baseline", {"jobs": 3}),
            ("baseline", {"validate": "bogus"}),
            ("baseline", {"optimization_level": "1"}),
            ("baseline", {"optimization_level": 7}),
            ("baseline", {"routing": "nope"}),
            ("baseline", {"seed_trials": 3}),
            ("trios", {"second_decomposition": "9cnot"}),
            ("baseline", {"seed": "abc"}),
        ]

        async def reject_all(service):
            for method, options in bad:
                request = make_request(method=method, **options)
                with pytest.raises(ServiceRequestError):
                    await service.compile(request)

        async def scenario():
            service = CompileService(pool_jobs=1)
            await service.start()
            try:
                await reject_all(service)  # cold cache
                cold_compiles = service.stats.pool_compiles
                await service.compile(make_request(method="baseline"))
                await service.compile(make_request(method="trios"))
                await reject_all(service)  # warm: the default keys are cached
            finally:
                await service.stop()
            return service, cold_compiles

        service, cold_compiles = asyncio.run(scenario())
        assert cold_compiles == 0
        assert service.stats.pool_compiles == 2
        assert service.stats.hits == 0
        assert service.stats.errors == 2 * len(bad)

    def test_invalid_request_never_fails_a_coalesced_valid_one(self):
        # jobs=3 at level 1 once shared the default key, coalesced with the
        # valid request and failed it.
        async def scenario():
            service = CompileService(pool_jobs=1, batch_window=0.02)
            await service.start()
            try:
                return await asyncio.gather(
                    service.compile(make_request(jobs=3)),
                    service.compile(make_request()),
                    return_exceptions=True,
                ), service
            finally:
                await service.stop()

        (invalid, valid), service = asyncio.run(scenario())
        assert isinstance(invalid, ServiceRequestError)
        assert valid.status == "miss" and valid.cnots > 0
        assert service.stats.pool_compiles == 1

    def test_on_error_fail_policy_rejected(self):
        with pytest.raises(ServiceError, match="on_error"):
            CompileService(policy=FailurePolicy(on_error="fail"))

    def test_request_from_json_validation(self):
        with pytest.raises(ServiceRequestError, match="qasm"):
            CompileRequest.from_json({"target": "line-20"})
        with pytest.raises(ServiceRequestError, match="target"):
            CompileRequest.from_json({"qasm": "OPENQASM 2.0;"})
        with pytest.raises(ServiceRequestError, match="unknown method"):
            CompileRequest.from_json(
                {"qasm": "OPENQASM 2.0;", "target": "line-20", "method": "x"}
            )
        with pytest.raises(ServiceRequestError, match="calibration"):
            CompileRequest.from_json(
                {
                    "qasm": "OPENQASM 2.0;",
                    "target": "line-20",
                    "options": {"calibration": {}},
                }
            )
        request = CompileRequest.from_json(
            {
                "qasm": "OPENQASM 2.0;",
                "target": "line-20",
                "options": {"layout": {"0": 3, "1": 1}},
            }
        )
        assert request.options["layout"] == {0: 3, 1: 1}


class TestServiceHTTP:
    def test_http_roundtrip_compile_stats_shutdown(self):
        async def scenario():
            service = CompileService(pool_jobs=1)
            server = ServiceHTTPServer(service, host="127.0.0.1", port=0)
            port = await server.start()
            loop = asyncio.get_running_loop()
            client = ServiceClient(port=port, timeout=120)
            qasm = to_qasm(get_benchmark("cnx_inplace-4"))

            def exchange():
                results = {}
                results["health"] = client.healthz()
                results["miss"] = client.compile(
                    qasm, "line-20", "baseline", {"seed": 11}
                )
                results["hit"] = client.compile(
                    qasm, "line-20", "baseline", {"seed": 11}
                )
                results["bad"] = client.compile(qasm, "no-such-device")
                results["bad_option"] = client.compile(
                    qasm, "line-20", "baseline", {"toffoli_mode": "9cnot"}
                )
                results["stats"] = client.stats()
                results["not_found"] = client.request("GET", "/nope")
                results["shutdown"] = client.shutdown()
                return results

            try:
                results = await loop.run_in_executor(None, exchange)
                await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            finally:
                await server.stop()
            return results

        results = asyncio.run(scenario())
        assert results["health"] == (200, {"status": "ok"})
        status, body = results["miss"]
        assert status == 200 and body["status"] == "miss" and body["cnots"] > 0
        status, hit = results["hit"]
        assert status == 200 and hit["status"] == "hit"
        assert hit["qasm"] == results["miss"][1]["qasm"]
        assert results["bad"][0] == 400
        assert results["bad_option"][0] == 400
        status, stats = results["stats"]
        assert status == 200
        assert stats["service"]["hits"] == 1
        assert stats["cache"]["hits"] == 1
        assert results["not_found"][0] == 404
        assert results["shutdown"][0] == 200


def test_topology_signature_distinguishes_devices():
    assert topology_signature(tiny_line(5)) != topology_signature(tiny_line(6))
