"""Static verification of communication plans.

``verify_plan`` returns a list of human-readable issues (empty when
the plan is sound); ``check_plan`` raises
:class:`~repro.util.errors.PlanVerificationError` listing all of them.
Lowering always verifies first — a plan that fails verification never
reaches a backend.

Checked invariants:

* **structure** — unique buffer names and op ids, known guards and op
  kinds, required fields per kind (a put needs peer/src/dst, a wait
  needs a target, ...);
* **buffers** — no dangling buffer references, rotation offsets inside
  the ring, accesses inside the declared byte size, RMA aimed at
  remotely-addressable (symmetric) buffers only;
* **dependencies** — ``after`` edges reference existing ops in the
  same section, the edge relation is acyclic, and the schedule (list
  order) respects every edge;
* **cross-rank matching** — for every rank where an RMA op's guard
  holds, the peer expression must resolve (a non-wrapping peer at the
  edge of the rank line needs an edge guard), which is exactly the
  condition for the MPI lowering's send/recv pairing to be total;
* **completion** — every put/get is followed by a fence in its
  section, every async compute has a wait, every wait names an async
  compute, and a multi-step body with communication or compute ends
  with a barrier (loop-carried safety);
* **one-sided visibility** — an op whose effects touch bytes that an
  incoming put (the SPMD mirror of an outgoing put) may write must be
  scheduled after a barrier that follows that put; reading halo bytes
  before the exchange has synchronized is the classic stencil race and
  is rejected statically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.plan.ir import (
    GUARDS,
    OP_KINDS,
    Access,
    BufDecl,
    CommPlan,
    PlanOp,
    accesses_conflict,
    guard_holds,
)
from repro.util.errors import PlanVerificationError


def _check_access(
    decls: Dict[str, BufDecl], op: PlanOp, acc: Access, role: str, issues: List[str]
) -> None:
    decl = decls.get(acc.buf.name)
    if decl is None:
        issues.append(
            f"op {op.op_id!r}: {role} references undeclared buffer "
            f"{acc.buf.name!r} (dangling)"
        )
        return
    if not 0 <= acc.buf.rot < decl.count:
        issues.append(
            f"op {op.op_id!r}: {role} rotation {acc.buf.rot} outside ring "
            f"of {decl.count} instance(s) of {decl.name!r}"
        )
    if acc.nbytes <= 0 or acc.offset < 0 or acc.end() > decl.nbytes:
        issues.append(
            f"op {op.op_id!r}: {role} range [{acc.offset}, {acc.end()}) "
            f"outside buffer {decl.name!r} of {decl.nbytes} bytes"
        )


def _required_fields(op: PlanOp, issues: List[str]) -> bool:
    """Per-kind field presence; returns False when too malformed to
    check further."""
    ok = True
    if op.kind not in OP_KINDS:
        issues.append(f"op {op.op_id!r}: unknown kind {op.kind!r}")
        return False
    if op.guard not in GUARDS:
        issues.append(f"op {op.op_id!r}: unknown guard {op.guard!r}")
        ok = False
    if op.kind in ("put", "get") and (
        op.peer is None or op.src is None or op.dst is None
    ):
        issues.append(f"op {op.op_id!r}: {op.kind} needs peer, src and dst")
        ok = False
    if op.kind == "notify" and op.peer is None:
        issues.append(f"op {op.op_id!r}: notify needs a peer")
        ok = False
    if op.kind == "allreduce" and op.coll is None:
        issues.append(f"op {op.op_id!r}: allreduce needs a CollSpec")
        ok = False
    if op.kind == "halo" and op.halo is None:
        issues.append(f"op {op.op_id!r}: halo needs a HaloSpec")
        ok = False
    if op.kind == "compute" and op.kernel is None:
        issues.append(f"op {op.op_id!r}: compute needs a kernel")
        ok = False
    if op.kind == "wait" and not op.waits_for:
        issues.append(f"op {op.op_id!r}: wait needs a target op")
        ok = False
    return ok


def _section_issues(
    plan: CommPlan,
    section: str,
    ops: tuple,
    decls: Dict[str, BufDecl],
    nranks: int,
    issues: List[str],
) -> None:
    ids = [op.op_id for op in ops]
    index = {op.op_id: i for i, op in enumerate(ops)}
    steps = plan.steps if section == "body" else 1

    for op in ops:
        if not _required_fields(op, issues):
            continue
        # buffer hygiene
        if op.kind in ("put", "get"):
            _check_access(decls, op, op.src, "src", issues)
            _check_access(decls, op, op.dst, "dst", issues)
            remote = op.dst if op.kind == "put" else op.src
            decl = decls.get(remote.buf.name)
            if decl is not None and decl.kind == "local":
                issues.append(
                    f"op {op.op_id!r}: {op.kind} targets rank-local buffer "
                    f"{decl.name!r}; RMA needs a symmetric or asymmetric "
                    "allocation"
                )
        if op.kind == "allreduce":
            _check_access(decls, op, op.coll.send, "send", issues)
            _check_access(decls, op, op.coll.recv, "recv", issues)
        if op.kind == "halo":
            spec = op.halo
            if spec.buf.name not in decls:
                issues.append(
                    f"op {op.op_id!r}: halo references undeclared buffer "
                    f"{spec.buf.name!r} (dangling)"
                )
            else:
                total = spec.nplanes * spec.plane_bytes
                for side in spec.sides:
                    for off, role in (
                        (side.src_offset, "halo src"),
                        (side.dst_offset, "halo dst"),
                    ):
                        _check_access(
                            decls, op, Access(spec.buf, off, total), role, issues
                        )
        for acc in op.reads:
            _check_access(decls, op, acc, "read", issues)
        for acc in op.writes:
            _check_access(decls, op, acc, "write", issues)
        if op.kind == "prefetch":
            decl = decls.get(op.prefetch_buf or "")
            if decl is None:
                issues.append(
                    f"op {op.op_id!r}: prefetch of undeclared buffer "
                    f"{op.prefetch_buf!r}"
                )
            elif decl.kind != "asymmetric":
                issues.append(
                    f"op {op.op_id!r}: prefetch targets {decl.kind} buffer "
                    f"{decl.name!r}; second-level pointers only exist for "
                    "asymmetric allocations"
                )
        # dependency edges
        for dep in op.after:
            if dep not in index:
                issues.append(
                    f"op {op.op_id!r}: dependency on unknown op {dep!r} "
                    f"(not in {section})"
                )
            elif index[dep] >= index[op.op_id]:
                issues.append(
                    f"op {op.op_id!r}: scheduled before its dependency "
                    f"{dep!r} ({section} order violates the edge)"
                )
        # cross-rank matching
        if op.kind in ("put", "get", "notify") and op.peer is not None:
            for rank in range(nranks):
                for step in (0, max(0, steps - 1)):
                    if not guard_holds(op.guard, rank, nranks, step, steps):
                        continue
                    if op.peer.resolve(rank, nranks) is None:
                        issues.append(
                            f"op {op.op_id!r}: cross-rank mismatch — guard "
                            f"{op.guard!r} holds on rank {rank}/{nranks} but "
                            f"{op.peer} resolves off the rank line; add an "
                            "edge guard or use a wrapping peer"
                        )
                        break
                else:
                    continue
                break

    # cycles: after-edges within the section (list-order violations are
    # reported above; a genuine cycle can't be scheduled at all)
    state: Dict[str, int] = {}

    def visit(op_id: str, stack: List[str]) -> None:
        if state.get(op_id) == 2:
            return
        if state.get(op_id) == 1:
            cycle = stack[stack.index(op_id):] + [op_id]
            issues.append(
                f"cyclic dependency in {section}: {' -> '.join(cycle)}"
            )
            return
        state[op_id] = 1
        stack.append(op_id)
        for dep in by_id[op_id].after:
            if dep in by_id:
                visit(dep, stack)
        stack.pop()
        state[op_id] = 2

    by_id = {op.op_id: op for op in ops}
    for op_id in ids:
        visit(op_id, [])

    # completion: RMA must be fenced; async computes must be awaited
    fence_positions = [i for i, op in enumerate(ops) if op.kind in ("fence", "barrier")]
    for i, op in enumerate(ops):
        if op.kind in ("put", "get") and not any(p > i for p in fence_positions):
            issues.append(
                f"op {op.op_id!r}: {op.kind} has no fence before the end of "
                f"the {section}; one-sided ops complete only at a fence"
            )
        if op.kind == "compute" and not op.sync:
            if not any(
                w.kind == "wait" and w.waits_for == op.op_id for w in ops[i + 1:]
            ):
                issues.append(
                    f"op {op.op_id!r}: async compute is never waited on in "
                    f"the {section}"
                )
        if op.kind == "wait":
            target = by_id.get(op.waits_for)
            if target is None or target.kind != "compute" or target.sync:
                issues.append(
                    f"op {op.op_id!r}: wait targets "
                    f"{op.waits_for!r}, which is not an async compute in the "
                    f"{section}"
                )
    if section == "body" and plan.steps > 1:
        active = [op for op in ops if op.kind in ("put", "get", "compute", "allreduce")]
        if active and (not ops or ops[-1].kind != "barrier"):
            issues.append(
                "body with communication or compute must end with a barrier "
                "(loop-carried visibility across steps)"
            )

    # one-sided visibility: effects overlapping an incoming-put range
    # must sit after a barrier that follows the put
    puts = [(i, op) for i, op in enumerate(ops) if op.kind == "put"]
    barrier_positions = [i for i, op in enumerate(ops) if op.kind == "barrier"]
    for pi, put in puts:
        for incoming in put.incoming_writes():
            for oi, other in enumerate(ops):
                if other.op_id == put.op_id or other.kind in ("fence", "barrier", "wait"):
                    continue
                if other.kind == "put":
                    # A sibling put's mirrored dst is part of the same
                    # exchange; only its *source read* can race the
                    # incoming write.
                    effects = other.local_reads()
                else:
                    effects = other.local_reads() + other.local_writes()
                if not any(accesses_conflict(decls, incoming, acc) for acc in effects):
                    continue
                if not any(pi < b <= oi for b in barrier_positions):
                    issues.append(
                        f"op {other.op_id!r}: touches bytes of {incoming} "
                        f"that incoming put {put.op_id!r} writes, without an "
                        "intervening barrier (one-sided visibility hazard)"
                    )


def verify_plan(plan: CommPlan, nranks: int) -> List[str]:
    """All issues found in ``plan`` for a world of ``nranks`` ranks."""
    issues: List[str] = []
    if nranks <= 0:
        return [f"nranks must be positive, got {nranks}"]
    if plan.steps < 0:
        issues.append(f"negative step count {plan.steps}")

    names = [b.name for b in plan.buffers]
    for name in sorted({n for n in names if names.count(n) > 1}):
        issues.append(f"duplicate buffer declaration {name!r}")
    decls = plan.decls()

    all_ids = [op.op_id for _, op in plan.all_ops()]
    for op_id in sorted({i for i in all_ids if all_ids.count(i) > 1}):
        issues.append(f"duplicate op id {op_id!r}")
    if issues:
        return issues

    for section, ops in (
        ("prologue", plan.prologue),
        ("body", plan.body),
        ("epilogue", plan.epilogue),
    ):
        _section_issues(plan, section, ops, decls, nranks, issues)
    return issues


def check_plan(plan: CommPlan, nranks: int) -> None:
    """Raise :class:`PlanVerificationError` if the plan is unsound."""
    issues = verify_plan(plan, nranks)
    if issues:
        listing = "\n  - ".join(issues)
        raise PlanVerificationError(
            f"plan {plan.name!r} failed verification with "
            f"{len(issues)} issue(s):\n  - {listing}"
        )
