"""Parent-side campaign orchestration over the supervised worker fleet.

A campaign reuses the checker fleet's whole execution stack unchanged —
:func:`repro.mc.parallel._run_items` gives shards journal replay,
cache short-circuiting, the supervised pool (crash detection, watchdog,
retry, poison quarantine), graceful interruption, and the inline
fallback — by introducing one new work-item kind, ``"campaign"``, whose
item index *is* the shard index.

Shard keys fold together the protocol sources' content hashes, the
canonical campaign-spec JSON, the shard index, and a fingerprint of the
campaign/simulator/fault implementation — so editing a protocol file,
changing any campaign parameter, or upgrading the simulator invalidates
exactly the affected journal/cache entries, the same invalidation
discipline the checker fleet has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..lang.memo import source_fingerprint
from ..mc.cache import SCHEMA_VERSION, ResultCache, _module_digest, _sha256
from ..mc.parallel import (
    FleetRun,
    WorkerConfig,
    WorkItem,
    _run_items,
    fleet_config_fields,
)
from ..mc.supervisor import RunJournal, SupervisorPolicy
from .plans import CAMPAIGN_SCHEMA, CampaignSpec

_CAMPAIGN_FP: Optional[str] = None


def campaign_fingerprint() -> str:
    """Hash of every module whose behaviour feeds campaign outcomes.

    Covers this package (plan derivation, properties, shrinking,
    running), the whole simulator, and the fault machinery — bumping
    any of them must invalidate journaled shard payloads, exactly as
    the engine fingerprint invalidates checker results.
    """
    global _CAMPAIGN_FP
    if _CAMPAIGN_FP is None:
        from ..faults import injector as faults_injector
        from ..faults import plan as faults_plan
        from ..flash.sim import buffers, directory, interp, machine
        from ..flash.sim import network, node, workload
        from . import crosstab, plans, properties, runner, shrink

        digests = [
            _module_digest(module)
            for module in (plans, properties, runner, shrink, crosstab,
                           machine, node, interp, buffers, directory,
                           network, workload, faults_plan, faults_injector)
        ]
        _CAMPAIGN_FP = _sha256(*(d.encode() for d in digests),
                               str(CAMPAIGN_SCHEMA).encode())
    return _CAMPAIGN_FP


@dataclass
class CampaignRun(FleetRun):
    """A full campaign: merged outcomes plus run metadata."""

    spec: CampaignSpec
    outcomes: list                     # run records, sorted by run index
    #: Shard indexes that did not complete (interrupted/quarantined),
    #: with the reason recorded by their degraded payloads.
    incomplete_shards: list

    @property
    def complete(self) -> bool:
        return not self.incomplete_shards

    def _scope(self) -> str:
        return (f", shards={self.spec.n_shards}, "
                f"runs={len(self.outcomes)}/{self.spec.runs}")


def shard_keys(spec: CampaignSpec, sources: dict) -> dict:
    """Journal/cache key per shard index."""
    fp = campaign_fingerprint()
    spec_json = spec.to_json()
    digests = [(path, source_fingerprint(text))
               for path, text in sources.items()]
    keys = {}
    for shard in range(spec.n_shards):
        keys[shard] = _sha256(
            fp.encode(), spec_json.encode(), str(shard).encode(),
            *(f"{p}\x00{d}".encode() for p, d in digests),
            f"schema={SCHEMA_VERSION}".encode(),
        )
    return keys


def run_campaign(spec: CampaignSpec, *, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[RunJournal] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 observation=None) -> CampaignRun:
    """Execute a campaign's shards across the supervised fleet.

    Returns merged outcomes in global run order.  Interruption
    (SIGINT/SIGTERM via the policy's stop flag) drains gracefully:
    completed shards are journaled, the rest surface in
    ``incomplete_shards``, and a later ``--resume`` replays the journal
    and runs only the remainder — byte-identical outcomes guaranteed by
    the determinism of :mod:`repro.campaign.plans`.  ``observation``
    (a :class:`repro.obs.Observation`) enables span tracing, metrics,
    and ``--progress`` for shards exactly as for checker items; the
    cross-tab is identical with or without it.
    """
    from ..project import read_sources

    sources = read_sources(list(spec.files))
    config = WorkerConfig(
        campaign_spec=spec.to_json(),
        **fleet_config_fields(policy, observation),
    )
    items = [
        WorkItem(kind="campaign", checker="", paths=tuple(spec.files),
                 weight=min(spec.runs - shard * spec.shard_size,
                            spec.shard_size),
                 index=shard)
        for shard in range(spec.n_shards)
    ]
    keys = shard_keys(spec, sources)
    payloads, _budget, run_stats = _run_items(
        items, config, jobs, cache, keys, journal=journal, policy=policy,
        observation=observation)

    outcomes = []
    incomplete = []
    for shard in range(spec.n_shards):
        payload = payloads.get(shard)
        if (payload is None or payload.get("degraded")
                or payload.get("quarantines")):
            notes = (payload or {}).get("degradation_notes") or []
            incomplete.append({"shard": shard,
                               "note": notes[0] if notes else "missing"})
            continue
        if payload.get("campaign") != CAMPAIGN_SCHEMA:
            raise ReproError(
                f"shard {shard} payload is from an incompatible campaign "
                f"schema; clear the cache or rerun without --resume")
        outcomes.extend(payload.get("outcomes", ()))
    outcomes.sort(key=lambda o: o["run"])
    return CampaignRun(
        spec=spec, outcomes=outcomes, incomplete_shards=incomplete,
        jobs=jobs, stats=cache.stats if cache is not None else None,
        run_id=journal.run_id if journal is not None else None,
        supervision=run_stats,
    )
