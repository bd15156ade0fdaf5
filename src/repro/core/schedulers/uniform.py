"""Uniform scheduler: Kubernetes' stock GPU behaviour.

GPU sharing is disabled by default in Kubernetes (Sec. III-B); a pod
gets a whole device exclusively until it completes and cannot be
preempted.  Placement is utilization-agnostic spreading: the pending
queue is served strictly FIFO and the head pod takes the first idle
device in node order whose memory can hold its request.  When no idle
device can, the *entire queue waits* — the head-of-line blocking that
drives this baseline's ~18 % QoS violations (Sec. VI-B): a 10 ms
inference query stuck behind a batch job blows its 150 ms SLO long
before a GPU frees up.
"""

from __future__ import annotations

from repro.core.schedulers.base import Action, Bind, Scheduler, SchedulingContext

__all__ = ["UniformScheduler"]


class UniformScheduler(Scheduler):
    """Exclusive-GPU FIFO baseline ("Uniform" in Figs. 10a/11a)."""

    name = "uniform"
    requires_sharing = False

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        actions: list[Action] = []
        auditing = self.obs.audit.enabled
        queue_depth = len(ctx.pending)
        # Devices with nothing resident and no bind issued this pass,
        # with the memory each can reserve.
        free: list[tuple[str, float] | None] = [
            (v.gpu_id, v.free_alloc_mb)
            for v in ctx.knots.all_gpus_by_free_memory()
            if not ctx.residents_on(v.gpu_id)
        ]
        # Keep node order (spreading), not free-memory order: the stock
        # scheduler is agnostic of GPU metrics.
        free.sort()
        idle = len(free)
        head = 0                          # first device not yet taken
        for pod in ctx.pending:           # strict FIFO
            need = pod.spec.requested_mem_mb
            # The first idle device in node order that can hold the pod.
            pick = next(
                (
                    i for i in range(head, idle)
                    if free[i] is not None and need <= free[i][1] + 1e-9
                ),
                None,
            )
            if pick is None:
                # Head-of-line blocking: everything behind waits too.
                if auditing:
                    for waiting in ctx.pending[len(actions):]:
                        self._audit_reject(
                            waiting, queue_depth, evidence={"reason": "head-of-line"}
                        )
                break
            gpu_id = free[pick][0]
            free[pick] = None
            while head < idle and free[head] is None:
                head += 1
            actions.append(Bind(pod.uid, gpu_id, need))
            if auditing:
                self._audit_bind(
                    pod, gpu_id, need, queue_depth,
                    evidence={"exclusive": True, "idle_devices": idle},
                )
        return actions
