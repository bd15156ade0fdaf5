"""Kube-Knots: the integrated orchestrator.

Binds the Kubernetes substrate (API server + kubelets + device
plugins), the Knots monitoring runtime, and one placement policy.  Each
*scheduling pass* it assembles a :class:`SchedulingContext` from
Knots, asks the policy for actions, and applies them through
the substrate — bind via the API server and kubelet, resize via the
device plugin's docker-resize path, sleep/wake on the devices.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.quantum import QuantumEngine
from repro.core.knots import Knots, KnotsConfig
from repro.core.schedulers.base import (
    Action,
    Bind,
    Resize,
    ResidentPod,
    Scheduler,
    SchedulingContext,
    Sleep,
    Wake,
)
from repro.kube.api import APIServer
from repro.kube.device_plugin import SharedGPUDevicePlugin
from repro.kube.kubelet import Kubelet, KubeletConfig
from repro.obs.context import NOOP, Observability

__all__ = ["KubeKnots"]


class KubeKnots:
    """Kubernetes + Knots + a placement policy."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        knots_config: KnotsConfig | None = None,
        kubelet_config: KubeletConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.obs = obs or NOOP
        scheduler.bind_observability(self.obs)
        self.api = APIServer()
        self.knots = Knots(cluster, knots_config, obs=self.obs)
        self.kubelets: dict[str, Kubelet] = {}
        for node in cluster:
            plugin = SharedGPUDevicePlugin(node, sharing_enabled=scheduler.requires_sharing)
            self.kubelets[node.node_id] = Kubelet(
                node, self.api, plugin, kubelet_config, obs=self.obs
            )
        #: Tick-skip bookkeeping, indexed like ``cluster.state.node_epoch``
        #: (both follow cluster node order).  A node is stepped when its
        #: epoch moved (external mutation) or its quiet horizon passed.
        self._kubelet_list: list[Kubelet] = list(self.kubelets.values())
        n_nodes = len(self._kubelet_list)
        self._quiet_until = np.full(n_nodes, -np.inf)
        self._epoch_seen = np.full(n_nodes, -1, dtype=np.int64)
        self._prev_tick_now: float | None = None
        #: Conservative "may host pods" mask over nodes: set when a Bind
        #: is applied, lazily cleared when a context build finds the
        #: node empty.  OR-ed with the live container counts from the
        #: SoA mirror, so the resident walk skips the (at 1024 nodes,
        #: vast) idle majority instead of polling every kubelet.
        self._hosting = np.zeros(n_nodes, dtype=bool)
        self._node_starts = np.array(
            [start for start, _ in cluster.state.node_slices], dtype=np.intp
        )
        #: ``state.epoch_gen`` after the last executed pass when that
        #: pass had nothing pending and returned no actions, else
        #: ``None``: while it still matches and nothing is pending, a
        #: pass would repeat that no-op (see :meth:`_repeats_noop`).
        self._noop_gen: int | None = None
        #: ``state.epoch_gen`` when every node epoch was last seen by a
        #: step (``node_epoch == _epoch_seen``), -1 before the first.
        self._seen_gen = -1
        #: The last due set, kept while it stays the due set: every node
        #: in it is at ``quiet_until == -inf``, no epoch moved since
        #: ``_seen_gen`` and ``now`` is before ``_due_until``, the
        #: earliest finite quiet horizon (:meth:`_note_step`).  ``None``
        #: when the next tick must run the full-width mask.
        self._due_idx: np.ndarray | None = None
        self._due_until = -np.inf
        #: Vectorized execution quantum: advances all hosting nodes'
        #: pods in one array pass per tick, dropping rare events (OOM,
        #: completion, failure) back through ``Kubelet.step_device``.
        #: It leaves only ``gpu.last_sample`` stale, which no policy
        #: reads (the :class:`Scheduler` device-state contract), so it
        #: engages in every dark run; an observed or sanitized run keeps
        #: the object tick.
        self.quantum: QuantumEngine | None = None
        if self.obs.sanitizer is None and not self.obs.enabled:
            self.quantum = QuantumEngine(
                cluster, self._kubelet_list, self._quiet_until, self._epoch_seen
            )
            for kubelet in self._kubelet_list:
                kubelet.engine = self.quantum
        metrics = self.obs.metrics
        self._m_passes = metrics.counter(
            "scheduler_passes_total", "Scheduling passes executed"
        )
        self._m_skipped = metrics.counter(
            "scheduler_passes_skipped_total",
            "Scheduling passes skipped as a repeat of the last no-op pass",
        )
        self._m_actions = metrics.counter(
            "scheduler_actions_total", "Actions applied, by kind", labelnames=("kind",)
        )
        self._m_faults = metrics.counter(
            "gpu_faults_injected_total", "Devices failed by the fault plan"
        )
        self._m_repairs = metrics.counter(
            "gpu_repairs_total", "Failed devices repaired"
        )
        self._m_cordons = metrics.counter(
            "node_cordons_total", "Nodes cordoned by the capacity plan"
        )
        self._m_reclaims = metrics.counter(
            "node_reclaims_total", "Nodes reclaimed by the capacity plan"
        )
        self._m_restores = metrics.counter(
            "node_restores_total", "Reclaimed/cordoned nodes restored"
        )
        self._m_gang_coevictions = metrics.counter(
            "gang_coevictions_total", "Gang siblings evicted with a dying member"
        )

    # -- context assembly ----------------------------------------------------

    def build_context(self, now: float) -> SchedulingContext:
        residents: dict[str, list[ResidentPod]] = {}
        state = self.cluster.state
        scan = self._hosting | (
            np.add.reduceat(state.num_containers, self._node_starts) > 0
        )
        kubelets = self._kubelet_list
        for i in np.nonzero(scan)[0]:
            kubelet = kubelets[i]
            pods = kubelet.hosted_map()
            if not pods:
                self._hosting[i] = False
                continue
            for pod in pods.values():
                residents.setdefault(pod.gpu_id, []).append(
                    ResidentPod(
                        uid=pod.uid,
                        image=pod.spec.image,
                        alloc_mb=pod.alloc_mb,
                        qos_class=pod.spec.qos_class,
                    )
                )
        return SchedulingContext(
            now=now,
            pending=self.api.pending_pods(),
            knots=self.knots,
            residents=residents,
        )

    # -- the pass --------------------------------------------------------------

    def scheduling_pass(self, now: float) -> list[Action]:
        """Run one policy pass and apply its actions.  Returns them.

        A pass that would repeat a no-op returns ``[]`` without building
        a context or calling the policy (:meth:`_repeats_noop`).  Under
        the sanitizer a skipped pass still asks the policy, and any
        action it returns is reported as an ``idle_pass_noop``
        violation instead of being applied.
        """
        obs = self.obs
        if self._repeats_noop():
            if obs.enabled:
                self._m_skipped.inc()
                san = obs.sanitizer
                if san is not None:
                    obs.clock.now = now
                    san.check_idle_pass(self.scheduler.schedule(self.build_context(now)))
            return []
        if not obs.enabled:
            ctx = self.build_context(now)
            actions = self.scheduler.schedule(ctx)
            for action in actions:
                self._apply(action, now)
            self._note_pass(ctx, actions)
            return actions

        obs.clock.now = now
        obs.audit.begin_pass(self.scheduler.name, ts=now)
        tracer = obs.tracer
        if tracer.enabled:
            tracer.begin("scheduling_pass", cat="scheduler", args={"policy": self.scheduler.name})
        ctx = self.build_context(now)
        actions = self.scheduler.schedule(ctx)
        for action in actions:
            self._apply(action, now)
            self._m_actions.inc(kind=type(action).__name__.lower())
        self._m_passes.inc()
        if tracer.enabled:
            tracer.end(args={"pending": len(ctx.pending), "actions": len(actions)})
        self._note_pass(ctx, actions)
        return actions

    def _repeats_noop(self) -> bool:
        """Whether this pass would repeat the last executed pass's no-op.

        True when nothing is pending, the last executed pass also had
        nothing pending and returned no actions, and no node epoch
        moved since.  The :meth:`Scheduler.schedule` contract then makes
        the policy's answer ``[]`` again: with nothing pending it may
        read only epoch-tracked cluster state.
        """
        return self._noop_gen == self.cluster.state.epoch_gen and not self.api.num_pending()

    def idle_until(self) -> float:
        """The earliest time a kubelet step or a scheduling pass could
        act if nothing new arrives.

        Mirrors the two branches of :meth:`step_kubelets`.  In a dark or
        observed run a node steps when its epoch moved or its quiet
        horizon passed, and a pass that would repeat the last no-op is
        skipped: ``-inf`` when the next pass would not repeat it or a
        node epoch moved since that node's last step, else the earliest
        quiet horizon (an auto-pstate deadline, or ``+inf`` when every
        device is parked).  A sanitized run steps every node every tick,
        so it is idle only while every device is asleep or failed:
        ``+inf`` then, else ``-inf``.
        """
        state = self.cluster.state
        if self.obs.sanitizer is not None:
            return float(np.inf if np.all(state.asleep | state.failed) else -np.inf)
        if not self._repeats_noop() or state.epoch_gen != self._seen_gen:
            return float("-inf")
        return float(self._quiet_until.min(initial=np.inf))

    def _note_pass(self, ctx: SchedulingContext, actions: list[Action]) -> None:
        self._noop_gen = None if ctx.pending or actions else self.cluster.state.epoch_gen

    def _apply(self, action: Action, now: float) -> None:
        if isinstance(action, Bind):
            pod = self.api.pod(action.pod_uid)
            node_id = action.gpu_id.split("/", 1)[0]
            self.api.bind(pod, node_id, action.gpu_id, action.alloc_mb, now)
            self.kubelets[node_id].admit(pod, now)
            self._hosting[self.cluster.state.node_index[node_id]] = True
        elif isinstance(action, Resize):
            pod = self.api.pod(action.pod_uid)
            node_id = action.gpu_id.split("/", 1)[0]
            self.kubelets[node_id].resize(pod, action.new_alloc_mb, now)
        elif isinstance(action, Sleep):
            gpu = self.cluster.find_gpu(action.gpu_id)
            if not gpu.containers:
                gpu.sleep()
                if self.obs.tracer.enabled:
                    self.obs.tracer.instant("gpu_sleep", cat="power", args={"gpu": action.gpu_id})
        elif isinstance(action, Wake):
            self.cluster.find_gpu(action.gpu_id).asleep = False
            if self.obs.tracer.enabled:
                self.obs.tracer.instant("gpu_wake", cat="power", args={"gpu": action.gpu_id})
        else:  # pragma: no cover - future action types
            raise TypeError(f"unknown action {action!r}")

    # -- execution hooks used by the simulator ----------------------------------

    def step_kubelets(self, now: float, dt_ms: float) -> None:
        """Advance every due node by one tick; record completed-pod profiles.

        A node with no hosted pods and no pending auto-pstate transition
        is provably inert (:meth:`Kubelet.quiet_horizon`), so its step
        is skipped until its horizon passes or its devices are mutated
        externally — any bind/resize/sleep/wake/fail/repair bumps the
        node's epoch in :class:`~repro.cluster.state.ClusterState`,
        which re-arms stepping on the next tick.  Under the sanitizer
        every node steps every tick, exactly like the legacy loop.
        """
        state = self.cluster.state
        if self.obs.sanitizer is not None:
            victims: list = []
            for kubelet in self.kubelets.values():
                victims.extend(kubelet.step(now, dt_ms))
            if victims:
                self._co_evict_gangs(victims, now)
            self._record_completions()
            self._prev_tick_now = now
            return
        due_idx = self._due_nodes(now)
        if len(due_idx):
            stepped_gen = state.epoch_gen
            prev = self._prev_tick_now
            if self.quantum is not None:
                victims = self.quantum.step_due(now, dt_ms, prev, due_idx)
            else:
                epochs = state.node_epoch
                kubelets = self._kubelet_list
                victims = []
                for i in due_idx:
                    kubelet = kubelets[i]
                    victims.extend(kubelet.step(now, dt_ms, prev))
                    self._quiet_until[i] = kubelet.quiet_horizon(now, dt_ms)
                    self._epoch_seen[i] = epochs[i]
            self._note_step(due_idx, stepped_gen)
            if victims:
                self._co_evict_gangs(victims, now)
            self._record_completions()
        else:
            self._note_step(due_idx, state.epoch_gen)
        self._prev_tick_now = now

    def _due_nodes(self, now: float) -> np.ndarray:
        """The nodes to step at ``now``, ascending: every node whose
        epoch moved since its last step or whose quiet horizon passed.

        The full-width mask runs only when the last due set may have
        changed; see ``_due_idx`` and :meth:`_note_step`.
        """
        if (
            self._due_idx is not None
            and self.cluster.state.epoch_gen == self._seen_gen
            and now < self._due_until
        ):
            return self._due_idx
        self._due_idx = None
        state = self.cluster.state
        return np.flatnonzero((state.node_epoch != self._epoch_seen) | (self._quiet_until <= now))

    def _note_step(self, due_idx: np.ndarray, stepped_gen: int) -> None:
        """After stepping ``due_idx`` (entered at ``epoch_gen ==
        stepped_gen``): every epoch is seen, and the set is kept for the
        next tick if it stays due.

        A step sees its own node's bumps, and a node whose epoch moved
        was due, so ``node_epoch == _epoch_seen`` now.  A fresh set is
        kept when every node in it left its step at ``quiet_until ==
        -inf`` (it hosts pods), until the earliest finite horizon.  A
        kept set entered that way, and only a bump (an attach, a detach,
        a flag) changes whether a node hosts pods, so it stays kept
        while its step bumped no epoch.
        """
        state = self.cluster.state
        quiet_until = self._quiet_until
        if self._due_idx is not None:
            if state.epoch_gen != stepped_gen:
                self._due_idx = None
        elif not len(due_idx) or quiet_until[due_idx].max() == -np.inf:
            self._due_idx = due_idx
            self._due_until = float(
                quiet_until.min(where=quiet_until > -np.inf, initial=np.inf)
            )
        self._seen_gen = state.epoch_gen

    def _co_evict_gangs(self, victims: list, now: float) -> None:
        """When a gang member dies, evict its still-hosted siblings.

        Gang semantics: members make progress in lock-step, so a lost
        member invalidates the others' work — requeue the whole gang
        together and let the scheduler re-place it atomically.  Pods
        without a gang spec (the default) are untouched.
        """
        seen: set[str] = set()
        for pod in victims:
            gang = pod.spec.gang
            if gang is None or gang.gang_id in seen:
                continue
            seen.add(gang.gang_id)
            for member in self.api.gang_members(gang.gang_id):
                if member.uid == pod.uid or member.node_id is None or member.done:
                    continue
                kubelet = self.kubelets.get(member.node_id)
                if kubelet is not None and kubelet.evict_pod(member.uid, now) is not None:
                    if self.obs.enabled:
                        self._m_gang_coevictions.inc()

    def _record_completions(self) -> None:
        # Event-driven: the API server hands over this tick's
        # completions in submission order (the order the old full-scan
        # diff visited them — the profile store's running means are
        # order-sensitive in floats).
        for pod in self.api.drain_succeeded():
            self.knots.profiles.record_trace(pod.spec.image, pod.spec.trace)

    def heartbeat(self, now: float) -> None:
        self.knots.heartbeat(now)

    # -- failure injection (driven by the simulator's fault plan) ----------------

    def fail_gpu(self, gpu_id: str) -> bool:
        """Fail a device (it falls off the bus; the kubelet evicts its
        pods on the next quantum).  Returns False if already failed —
        the fault-plan entry is then swallowed, exactly like the old
        in-loop ``if not gpu.failed`` check."""
        gpu = self.cluster.find_gpu(gpu_id)
        if gpu.failed:
            return False
        gpu.fail()
        if self.obs.enabled:
            self._m_faults.inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant("gpu_fail", cat="fault", args={"gpu": gpu_id})
        return True

    def repair_gpu(self, gpu_id: str) -> None:
        """Bring a failed device back (empty and awake)."""
        self.cluster.find_gpu(gpu_id).repair()
        if self.obs.enabled:
            self._m_repairs.inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant("gpu_repair", cat="fault", args={"gpu": gpu_id})

    # -- capacity transitions (driven by the simulator's capacity plan) ----------

    def cordon_node(self, node_id: str) -> bool:
        """Drain a node: residents keep running, no new placements.

        Returns False when every device was already cordoned (tolerant
        of overlapping capacity windows re-draining a spare)."""
        node = self.kubelets[node_id].node
        changed = False
        for gpu in node.gpus:
            if not gpu.cordoned:
                gpu.cordoned = True
                changed = True
        if changed and self.obs.enabled:
            self._m_cordons.inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant("node_cordon", cat="capacity", args={"node": node_id})
        return changed

    def uncordon_node(self, node_id: str) -> None:
        """Re-open a drained node for placement."""
        for gpu in self.kubelets[node_id].node.gpus:
            if gpu.cordoned:
                gpu.cordoned = False

    def reclaim_node(self, node_id: str, now: float) -> bool:
        """Take a node away (spot reclaim): evict every hosted pod back
        to the pending queue, then fail its devices.  Gang siblings of
        the victims are co-evicted cluster-wide.  Returns False if the
        node was already fully reclaimed."""
        kubelet = self.kubelets[node_id]
        node = kubelet.node
        if all(gpu.failed for gpu in node.gpus):
            return False
        self.cordon_node(node_id)
        victims = [
            kubelet.evict_pod(uid, now) for uid in list(kubelet.hosted_map())
        ]
        victims = [pod for pod in victims if pod is not None]
        if victims:
            self._co_evict_gangs(victims, now)
        for gpu in node.gpus:
            if not gpu.failed:
                gpu.fail()
        if self.obs.enabled:
            self._m_reclaims.inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    "node_reclaim", cat="capacity",
                    args={"node": node_id, "evicted": len(victims)},
                )
        self._check_capacity_conservation(node)
        return True

    def restore_node(self, node_id: str) -> None:
        """Bring a reclaimed (or merely drained) node back into service."""
        node = self.kubelets[node_id].node
        for gpu in node.gpus:
            if gpu.failed:
                gpu.repair()
            if gpu.cordoned:
                gpu.cordoned = False
        if self.obs.enabled:
            self._m_restores.inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant("node_restore", cat="capacity", args={"node": node_id})
        self._check_capacity_conservation(node)

    def _check_capacity_conservation(self, node) -> None:
        """Sanitizer hook: after a capacity transition, allocations must
        fit the node's live capacity and no accepted pod may be lost."""
        san = self.obs.sanitizer
        if san is None:
            return
        san.check_node_capacity(node)
        hosted: set[str] = set()
        for kubelet in self.kubelets.values():
            hosted.update(kubelet.hosted_map())
        san.check_pod_tracking(
            {p.uid for p in self.api.unfinished()},
            {p.uid for p in self.api.pending_pods()},
            hosted,
        )
