"""Gang-scheduled multi-GPU jobs: workload conversion + placement.

Two pieces:

* :func:`apply_gang_mix` rewrites a seeded fraction of a workload's
  batch arrivals into gangs — ``size`` member pods (one device each)
  submitted at the same instant, linked by a
  :class:`~repro.kube.pod.GangSpec`.
* :class:`GangScheduler` wraps any base policy with all-or-nothing gang
  placement and topology preference (same node, then same rack, then
  spanning).  Passes with no pending gang members delegate to the inner
  policy with an untouched context, so a workload without gangs runs
  bit-identical to the unwrapped policy.

Placement uses full reservations (``requested_mem_mb``) — gangs are
synchronized training jobs, the one class the paper does *not* harvest.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.schedulers.base import Action, Bind, Scheduler, SchedulingContext
from repro.kube.pod import GangSpec, Pod, PodSpec
from repro.scenario.spec import GangMix
from repro.workloads.base import QoSClass

__all__ = ["apply_gang_mix", "GangScheduler"]

#: A workload item, as produced by the generators.
_WorkloadItem = tuple[float, PodSpec]


def apply_gang_mix(
    workload: list[_WorkloadItem], mix: GangMix
) -> list[_WorkloadItem]:
    """Convert a seeded fraction of batch arrivals into gang members.

    Latency-critical pods are never converted.  Each converted arrival
    becomes ``size`` members sharing the original trace (synchronized
    data-parallel work), submitted at the original arrival instant.
    """
    rng = np.random.default_rng(mix.seed)
    probs = np.asarray(mix.probs, dtype=float)
    probs = probs / probs.sum()
    out: list[_WorkloadItem] = []
    gang_no = 0
    for at_ms, spec in workload:
        if spec.qos_class is not QoSClass.BATCH or rng.random() >= mix.fraction:
            out.append((at_ms, spec))
            continue
        size = int(rng.choice(np.asarray(mix.sizes), p=probs))
        gang_id = f"gang-{gang_no}"
        gang_no += 1
        for rank in range(size):
            member = replace(
                spec,
                name=f"{spec.name}:g{rank}",
                gang=GangSpec(gang_id=gang_id, size=size, rank=rank),
            )
            out.append((at_ms, member))
    return out


class GangScheduler(Scheduler):
    """All-or-nothing gang placement wrapped around a base policy.

    A pass with pending gang members first tries to place each complete
    gang (queue order) onto distinct devices, preferring one node, then
    one rack, then a greedy span.  If any gang landed, only those binds
    are returned — the inner policy's per-pass bookkeeping never sees
    them, so mixing both in one pass can't double-book a device;
    singles get the next pass.  Otherwise singles are delegated to the
    inner policy.
    """

    def __init__(self, inner: Scheduler, rack_size: int = 8, prefer: str = "node") -> None:
        self.inner = inner
        self.rack_size = max(int(rack_size), 1)
        self.prefer = prefer
        self.name = f"gang+{inner.name}"
        self.requires_sharing = inner.requires_sharing

    def bind_observability(self, obs) -> None:
        super().bind_observability(obs)
        self.inner.bind_observability(obs)

    # -- the pass ------------------------------------------------------------

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        gang_pending = [p for p in ctx.pending if p.spec.gang is not None]
        if not gang_pending:
            return self.inner.schedule(ctx)
        actions = self._place_gangs(ctx, gang_pending)
        if actions:
            return actions
        singles = [p for p in ctx.pending if p.spec.gang is None]
        if not singles:
            return []
        sub = SchedulingContext(
            now=ctx.now, pending=singles, knots=ctx.knots, residents=ctx.residents
        )
        return self.inner.schedule(sub)

    def _place_gangs(self, ctx: SchedulingContext, gang_pending: list[Pod]) -> list[Action]:
        # Sleeping devices are candidates (a bind wakes them on admit);
        # the list already leaves out failed and cordoned ones.  Under a
        # policy that does not share devices, a member needs an empty
        # device to itself.
        views = ctx.knots.all_gpus_by_free_memory()
        exclusive = not self.requires_sharing
        free: dict[str, float] = {}
        node_of: dict[str, str] = {}
        for v in views:
            if exclusive and v.num_containers:
                continue
            free[v.gpu_id] = v.free_alloc_mb
            node_of[v.gpu_id] = v.node_id
        rack_of = {
            node: i // self.rack_size
            for i, node in enumerate(sorted({v.node_id for v in views}))
        }

        groups: dict[str, list[Pod]] = {}
        arrival_order: dict[str, int] = {}
        for i, pod in enumerate(gang_pending):
            gid = pod.spec.gang.gang_id
            groups.setdefault(gid, []).append(pod)
            arrival_order.setdefault(gid, i)

        actions: list[Action] = []
        for gid in sorted(groups, key=lambda g: arrival_order[g]):
            members = sorted(groups[gid], key=lambda p: (p.spec.gang.rank, p.uid))
            need = max(p.spec.requested_mem_mb for p in members)
            chosen = self._pick_devices(len(members), need, free, node_of, rack_of)
            if chosen is None:
                continue  # all-or-nothing: the whole gang waits
            for pod, gpu_id in zip(members, chosen):
                alloc = pod.spec.requested_mem_mb
                if exclusive:
                    del free[gpu_id]
                else:
                    free[gpu_id] -= alloc
                actions.append(Bind(pod_uid=pod.uid, gpu_id=gpu_id, alloc_mb=alloc))
                self._audit_bind(
                    pod, gpu_id, alloc, queue_depth=len(ctx.pending),
                    evidence={"gang": gid, "size": len(members)},
                )
        return actions

    def _pick_devices(
        self,
        k: int,
        need_mb: float,
        free: dict[str, float],
        node_of: dict[str, str],
        rack_of: dict[str, int],
    ) -> list[str] | None:
        """``k`` distinct fitting devices with locality preference, or
        ``None``.  All tie-breaks are lexicographic for determinism."""
        by_node: dict[str, list[str]] = {}
        for gpu_id in sorted(g for g, f in free.items() if f >= need_mb):
            by_node.setdefault(node_of[gpu_id], []).append(gpu_id)
        if sum(len(g) for g in by_node.values()) < k:
            return None

        # Tier 1: one node — the tightest node that fits the whole gang.
        if self.prefer == "node":
            nodes = [n for n, gpus in by_node.items() if len(gpus) >= k]
            if nodes:
                best = min(nodes, key=lambda n: (len(by_node[n]), n))
                return by_node[best][:k]

        # Tier 2: one rack — the tightest rack, filled densest-node-first.
        by_rack: dict[int, list[str]] = {}
        for node in by_node:
            by_rack.setdefault(rack_of.get(node, 0), []).append(node)
        racks = [
            r for r, nodes in by_rack.items()
            if sum(len(by_node[n]) for n in nodes) >= k
        ]
        if racks:
            best_rack = min(
                racks, key=lambda r: (sum(len(by_node[n]) for n in by_rack[r]), r)
            )
            return self._fill(k, by_node, by_rack[best_rack])

        # Tier 3: span — greedy over the densest nodes anywhere.
        return self._fill(k, by_node, list(by_node))

    @staticmethod
    def _fill(k: int, by_node: dict[str, list[str]], nodes: list[str]) -> list[str]:
        chosen: list[str] = []
        for node in sorted(nodes, key=lambda n: (-len(by_node[n]), n)):
            take = min(k - len(chosen), len(by_node[node]))
            chosen.extend(by_node[node][:take])
            if len(chosen) == k:
                break
        return chosen
