"""Kernelized run loop for the CASINO core (vector tier).

This is :class:`~repro.cores.casino.core.CasinoCore`'s cycle loop with the
hot stages — fetch (I-cache line checks, fused TAGE/BTB prediction),
dispatch, the cascaded S-IQ window scan, in-order IQ issue, commit, SB
retirement, the wakeup calendar and the quiescence evaluator — inlined
into one flat function driven by the trace's
:class:`~repro.engine.soatrace.TraceArrays` columns.

Unlike :mod:`~repro.engine.fastino`, the in-flight state here stays
*object-shaped*: the renamer (RAT / ProducerCount / recovery log), the
LSU (SQ/SB CAM, sentinels, OSCA, LQ mode) and the squash walk all operate
on :class:`InflightInst` entries with entangled cross-references, so the
kernel allocates real entries at dispatch and calls
``ConditionalRenamer`` / ``CasinoLsu`` methods for rename actions, load
issue bookkeeping, load value-checks and squash recovery.  Everything
around those calls — queue scans, readiness polls, per-cycle counter
bumps, FU accounting, the fetch pipe (a packed int deque), branch
prediction and the L1D/L1I clean-hit paths — is inlined with hoisted
locals and bulk-flushed accumulators.

Bit-identity contract: identical to fastino's — every counter key and
value, commit order, recorded schedule, squash recovery effect,
``SimulationError`` message (``_debug_state()`` reads ``dbuf_used``,
which is hoisted, so it is written back before every raise) and the
post-run core/fetch/stream state match the interpreted path exactly.
``tests/test_vector_tier.py`` asserts this across apps, seeds and both
fast-forward settings.

Counter flushing rule: accumulators flush only when nonzero so the
counter *key set* matches the interpreted run; counters bumped by
non-inlined callees (renamer, LSU, caches, TAGE, BTB) are never
localised here.

Cycle accounting: an attached :class:`~repro.obs.accounting.
CycleAccounting` is called exactly where the interpreted loop calls it —
``on_cycle`` after the stages and before fetch, ``on_idle_span`` on each
fast-forward jump before its wakeups drain, ``on_warmup`` at the warm
snapshot (``finish`` runs in ``CoreModel.run``).  The classifier reads
the live entries and queues; the few hoisted scalars it reads
(``_expected_commit_seq``, ``fetch.blocked_seq``, ``fetch.stalled_until``)
are written back before each call, and whether anything committed or
issued comes from the kernel's own state, since its counters are
bulk-flushed.
"""

from __future__ import annotations

from collections import deque

from repro.common.params import (
    DISAMBIG_AGI_ORDERING,
    DISAMBIG_FULLY_OOO,
    NUM_INT_ARCH,
    RENAME_CONDITIONAL,
)
from repro.engine.core_base import InflightInst, SimulationError, _FAR_FUTURE
from repro.engine.fastino import _FQ_MASK, _FQ_SHIFT, _FU_TABLE, _OP_BRANCH
from repro.frontend.fetch import FetchedInst

_FAR = _FAR_FUTURE


def run_casino(core, arrays, max_cycles, watchdog, warmup, skip_ok):
    """Run the whole trace on a ``CasinoCore`` after ``reset()``.

    Returns ``(final_cycle, warm_snapshot, warm_cycle)`` exactly as the
    interpreted loop would leave them; raises the same
    :class:`SimulationError` family on watchdog/budget/ordering trips.
    """
    cfg = core.cfg
    width = cfg.width
    ws = cfg.specino_ws
    so = cfg.specino_so
    rob_size = cfg.rob_size
    sq_sb_size = cfg.sq_sb_size
    lq_size = cfg.lq_size
    dbuf_size = cfg.data_buffer_size
    frontend_latency = cfg.frontend_latency
    mispredict_penalty = cfg.mispredict_penalty
    name = cfg.name
    use_dbuf = cfg.rename_scheme == RENAME_CONDITIONAL
    agi_mode = cfg.disambiguation == DISAMBIG_AGI_ORDERING

    # SoA trace columns (indexable by dynamic sequence number).
    pc_col = arrays.pc
    op_col = arrays.op
    dst_col = arrays.dst
    nsrc_col = arrays.nsrc
    src0_col = arrays.src0
    src1_col = arrays.src1
    addr_col = arrays.mem_addr
    taken_col = arrays.taken
    target_col = arrays.target
    kind_col, lat_col, line_col = arrays.hot_columns()
    extra_srcs = arrays.extra_srcs
    n = len(pc_col)
    fu_col = bytes(op_col).translate(_FU_TABLE)

    counters = core.stats.counters
    queues = core.queues
    queue_sizes = core.queue_sizes
    n_queues = len(queues)
    q0 = queues[0]
    q0_cap = queue_sizes[0]
    iq = queues[-1]
    iq_popleft = iq.popleft
    rob = core.rob
    rob_append = rob.append
    rob_popleft = rob.popleft

    # Renamer hot paths (can_alloc / can_pass / rename_* / on_iq_issue /
    # commit) are inlined below against these hoisted bindings.  ``rat``
    # and ``pending_map`` are the renamer's own dicts mutated in place, so
    # the (rare, non-inlined) ``squash`` call sees them live; the free-list
    # ints and ``_next_phys`` are locals, written back before every raise
    # (``_debug_state`` prints the free counts), around each squash call
    # and in ``finally``.  ``is_fp_reg(dst)`` is just ``dst >= NUM_INT_ARCH``.
    renamer = core.renamer
    renamer_squash = renamer.squash
    rat = renamer.rat
    pending_map = renamer.pending
    pending_get = pending_map.get
    free_int = renamer.free_int
    free_fp = renamer.free_fp
    next_phys = renamer._next_phys
    num_int = NUM_INT_ARCH
    pc_max = cfg.producer_count_max
    new_inflight = InflightInst.__new__

    lsu = core.lsu
    lsu_sq = lsu.sq                     # never rebound (lsu.lq is; see below)
    lsu_sq_append = lsu_sq.append
    lsu_sq_popleft = lsu_sq.popleft
    sentinels = lsu.sentinels
    sentinels_get = sentinels.get
    lsu_load_issued = lsu.load_issued
    lsu_store_issued = lsu.store_issued
    lsu_commit_load = lsu.commit_load
    lsu_squash = lsu.squash
    osca = lsu.osca
    osca_dec = osca.dec if osca is not None else None
    fully_ooo = lsu.mode == DISAMBIG_FULLY_OOO
    # load_issued / commit_load are inlined below for the value-check
    # modes (everything except fully_ooo); a load with no address falls
    # back to the method call so the interpreted path's behaviour —
    # including its crashes — is preserved verbatim.
    line_pins = lsu._line_pins          # mutated in place, never rebound
    line_pins_append = line_pins.append
    line_pins_remove = line_pins.remove
    line_sentinels = lsu.hier.line_sentinels
    line_sent_get = line_sentinels.get
    line_sent_pop = line_sentinels.pop
    if osca is not None:
        osca_counters = osca.counters
        osca_granule = osca.granule
        osca_entries = osca.entries
    else:
        osca_counters = None
        osca_granule = osca_entries = 1

    dbuf_used = core.dbuf_used

    # Fetch state, fully hoisted: the queue becomes one packed int deque
    # (decode-ready cycle and trace index in a single value); predictor
    # and L1I calls bind direct.  Written back on every exit.
    fetch = core.fetch
    objs = core.stream.trace
    fetch_capacity = fetch.capacity
    tage_predict_update = fetch.tage.predict_update
    btb_lookup_update = fetch.btb.lookup_update
    fq = deque()
    fq_append = fq.append
    fq_popleft = fq.popleft
    fq_pop = fq.pop
    n_fq = 0
    cursor = 0
    blocked_seq = None
    stalled_until = 0
    cur_line = -1

    hier = core.hier
    hier_store = hier.store
    l1d = hier.l1d
    l1d_access = l1d.access
    l1d_hit = l1d.cfg.latency
    # L1D/L1I clean-hit fast path state (neither cache has an access hook
    # — only the L2 trains the prefetcher — so a resident, non-in-flight
    # line's access() reduces to counter bumps plus an LRU touch, inlined
    # at the call sites below; anything else falls through to access()).
    l1d_shift = l1d._line_shift
    l1d_nsets = l1d.n_sets
    l1d_sets_get = l1d.sets.get
    l1d_mshrs_get = l1d.mshrs.get
    l1d_dirty_add = l1d.dirty.add
    k_l1d_accesses = l1d._k_accesses
    k_l1d_hits = l1d._k_hits
    l1i = hier.l1i
    l1i_access = l1i.access
    l1i_hit = l1i.cfg.latency
    l1i_shift = l1i._line_shift
    l1i_nsets = l1i.n_sets
    l1i_sets_get = l1i.sets.get
    l1i_mshrs_get = l1i.mshrs.get
    k_l1i_accesses = l1i._k_accesses
    k_l1i_hits = l1i._k_hits

    capacity = core.fu.capacity
    n_alu, n_fpu, n_agu = capacity

    wakeup_cal = core._wakeup_cal
    wakeup_cal_get = wakeup_cal.get
    next_wakeup = min(wakeup_cal) if wakeup_cal else _FAR
    last_writer = core.last_writer
    last_writer_get = last_writer.get
    schedule = core.schedule
    acct = core.accounting
    acct_on_cycle = acct.on_cycle if acct is not None else None

    cycle = 0
    expected_seq = core._expected_commit_seq
    committed_total = core._committed
    last_commit_cycle = core._last_commit_cycle
    ff_spans = 0
    ff_skipped = 0
    warm_snapshot = None
    warm_cycle = 0
    warm_trigger = warmup if warmup else _FAR
    next_trip = last_commit_cycle + watchdog
    if max_cycles < next_trip:
        next_trip = max_cycles

    # Local counter accumulators (bulk-flushed; see module docstring).
    c_committed = 0
    c_rob_reads = 0
    c_dbuf = 0
    c_com_s = 0
    c_com_iq = 0
    c_mem_stores = 0
    c_mem_loads = 0
    c_squashes = 0
    c_iq_src = 0
    c_iq_dbuf = 0
    c_iq_fu = 0
    c_issued_iq = 0
    c_issued_iq_mem = 0
    c_issued_iq_nonmem = 0
    c_issued_spec = 0
    c_issued_spec_mem = 0
    c_issued_spec_nonmem = 0
    c_issued = 0
    c_prf_reads = 0
    c_prf_writes = 0
    c_stl = 0
    c_siq_exam = 0
    c_siq_passes = 0
    c_prf_stall = 0
    c_agi = 0
    c_pass_rename = 0
    c_rob_writes = 0
    c_sq_writes = 0
    c_sb_retires = 0
    c_sb_sent = 0
    c_dispatched = 0
    c_fetched = 0
    c_gates = 0
    c_redirects = 0
    c_rat_reads = 0
    c_rat_writes = 0
    c_allocs = 0
    c_allocs_fp = 0
    c_allocs_int = 0
    c_pc_incs = 0
    c_freelist = 0
    c_osca = 0
    c_osca_skips = 0
    c_sq_searches = 0
    c_sentinels = 0
    c_sq_commit = 0
    c_mem_viol = 0

    try:
        while True:
            if not rob and cursor >= n and not n_fq and not lsu_sq:
                empty = True
                for queue in queues:
                    if queue:
                        empty = False
                        break
                if empty:
                    core.cycle = cycle - 1 if cycle else 0
                    break

            if skip_ok:
                # Inlined CasinoCore._next_event_cycle: scalar stall-rate
                # ints instead of a dict, min-tracking instead of a
                # candidate list.
                quiescent = True
                target = _FAR
                r_sb_sent = r_iq_src = r_iq_dbuf = r_iq_fu = 0
                r_siq_exam = r_prf = r_agi = r_pass = 0
                if rob:
                    done = rob[0].done_at
                    if done is not None and done <= cycle:
                        quiescent = False
                if quiescent and lsu_sq:
                    head = lsu_sq[0]
                    if head.committed:
                        if head in sentinels:
                            r_sb_sent = 1
                        else:
                            fill_at = head.fill_ready
                            if fill_at is None:
                                pass
                            elif cycle < fill_at:
                                if fill_at < target:
                                    target = fill_at
                            else:
                                quiescent = False
                if quiescent and iq:
                    entry = iq[0]
                    if entry.n_pending:
                        ready = True
                        for producer in entry.producers:
                            done = producer.done_at
                            if done is None or done > cycle:
                                ready = False
                                break
                    else:
                        ready = True
                    if not ready:
                        r_iq_src = 1
                    else:
                        seq = entry.seq
                        if (use_dbuf and dst_col[seq] >= 0
                                and dbuf_used >= dbuf_size):
                            r_iq_dbuf = 1
                        elif capacity[fu_col[seq]]:
                            quiescent = False
                        else:
                            r_iq_fu = 1
                if quiescent:
                    qi = n_queues - 2
                    while qi >= 0:
                        queue = queues[qi]
                        if not queue:
                            qi -= 1
                            continue
                        first = qi == 0
                        entry = queue[0]
                        if first:
                            r_siq_exam = 1
                        if entry.n_pending:
                            ready = True
                            for producer in entry.producers:
                                done = producer.done_at
                                if done is None or done > cycle:
                                    ready = False
                                    break
                        else:
                            ready = True
                        seq = entry.seq
                        kind = kind_col[seq]
                        if ready:
                            # read-only twin of _can_issue_spec
                            blocked = False
                            if first:
                                if len(rob) >= rob_size:
                                    blocked = True
                                elif ((d := dst_col[seq]) >= 0
                                      and (free_fp if d >= num_int
                                           else free_int) <= 0):
                                    r_prf += 1
                                    blocked = True
                                elif (kind == 2
                                        and len(lsu_sq) >= sq_sb_size):
                                    blocked = True
                                elif (kind == 1 and fully_ooo
                                        and len(lsu.lq) >= lq_size):
                                    blocked = True
                            if not blocked and agi_mode and 0 < kind < 3:
                                older = False
                                for other in rob:
                                    if other.seq >= seq:
                                        break
                                    if (0 < kind_col[other.seq] < 3
                                            and other.issue_at is None):
                                        older = True
                                        break
                                if older:
                                    r_agi += 1
                                    blocked = True
                            if not blocked and capacity[fu_col[seq]]:
                                quiescent = False
                                break
                        elif so >= 1 and (len(queues[qi + 1])
                                          < queue_sizes[qi + 1]):
                            if not first:
                                quiescent = False
                                break
                            # read-only twin of _can_pass_first
                            if len(rob) >= rob_size:
                                pass
                            elif ((d := dst_col[seq]) >= 0
                                  and (pending_get(rat[d], 0) >= pc_max
                                       if use_dbuf else
                                       (free_fp if d >= num_int
                                        else free_int) <= 0)):
                                r_pass += 1
                            elif kind == 2 and len(lsu_sq) >= sq_sb_size:
                                pass
                            else:
                                quiescent = False
                                break
                        qi -= 1
                if quiescent and n_fq:
                    ready_at = fq[0] >> _FQ_SHIFT
                    if ready_at > cycle:
                        if ready_at < target:
                            target = ready_at
                    elif q0_cap > len(q0):
                        quiescent = False
                if quiescent and blocked_seq is None:
                    if stalled_until > cycle:
                        if stalled_until < target:
                            target = stalled_until
                    elif cursor < n and n_fq < fetch_capacity:
                        quiescent = False
                if quiescent:
                    if next_wakeup < target:
                        target = next_wakeup
                    wd_fire = last_commit_cycle + watchdog + 1
                    mc_fire = max_cycles + 1
                    stop = target
                    if wd_fire < stop:
                        stop = wd_fire
                    if mc_fire < stop:
                        stop = mc_fire
                    if stop > cycle:
                        span = stop - cycle
                        if r_sb_sent:
                            c_sb_sent += span
                        if r_iq_src:
                            c_iq_src += span
                        if r_iq_dbuf:
                            c_iq_dbuf += span
                        if r_iq_fu:
                            c_iq_fu += span
                        if r_siq_exam:
                            c_siq_exam += span
                        if r_prf:
                            c_prf_stall += r_prf * span
                        if r_agi:
                            c_agi += r_agi * span
                        if r_pass:
                            c_pass_rename += r_pass * span
                        ff_spans += 1
                        ff_skipped += span
                        if acct is not None:
                            core._expected_commit_seq = expected_seq
                            fetch.blocked_seq = blocked_seq
                            fetch.stalled_until = stalled_until
                            acct.on_idle_span(core, cycle, stop - 1)
                        if next_wakeup <= stop:
                            while True:
                                due = [key for key in wakeup_cal
                                       if key <= stop]
                                if not due:
                                    break
                                for key in due:
                                    for producer in wakeup_cal.pop(key):
                                        done = producer.done_at
                                        if done is None:
                                            continue
                                        if done > key:
                                            bucket = wakeup_cal_get(done)
                                            if bucket is None:
                                                wakeup_cal[done] = [producer]
                                            else:
                                                bucket.append(producer)
                                            continue
                                        waiters = producer.waiters
                                        if waiters:
                                            for waiter in waiters:
                                                waiter.n_pending -= 1
                                            waiters.clear()
                            next_wakeup = (min(wakeup_cal) if wakeup_cal
                                           else _FAR)
                        cycle = stop
                        if stop == wd_fire:
                            core.cycle = stop - 1
                            core.dbuf_used = dbuf_used
                            renamer.free_int = free_int
                            renamer.free_fp = free_fp
                            raise SimulationError(
                                f"{name}: no commit for "
                                f"{watchdog} cycles at cycle {cycle} "
                                f"(deadlock?) - {core._debug_state()}",
                                core=name,
                                check="deadlock_watchdog", cycle=cycle,
                                last_commit_cycle=last_commit_cycle,
                                committed=committed_total,
                                debug=core._debug_state())
                        if stop == mc_fire:
                            core.cycle = stop - 1
                            core.dbuf_used = dbuf_used
                            renamer.free_int = free_int
                            renamer.free_fp = free_fp
                            raise SimulationError(
                                f"{name}: exceeded {max_cycles} "
                                f"cycles - {core._debug_state()}",
                                core=name, check="cycle_budget",
                                cycle=cycle, max_cycles=max_cycles,
                                committed=committed_total,
                                debug=core._debug_state())

            # -- wakeup calendar delivery --------------------------------
            if cycle >= next_wakeup:
                bucket = wakeup_cal.pop(cycle, None)
                if bucket is not None:
                    for producer in bucket:
                        done = producer.done_at
                        if done is None:
                            continue
                        if done > cycle:
                            requeue = wakeup_cal_get(done)
                            if requeue is None:
                                wakeup_cal[done] = [producer]
                            else:
                                requeue.append(producer)
                            continue
                        waiters = producer.waiters
                        if waiters:
                            for waiter in waiters:
                                waiter.n_pending -= 1
                            waiters.clear()
                next_wakeup = min(wakeup_cal) if wakeup_cal else _FAR

            # -- functional-unit pool reset ------------------------------
            free_alu = n_alu
            free_fpu = n_fpu
            free_agu = n_agu
            store_port_free = True

            # -- SB head retire into the L1D -----------------------------
            if lsu_sq:
                head = lsu_sq[0]
                if head.committed:
                    if head in sentinels:
                        c_sb_sent += 1
                    else:
                        fill_at = head.fill_ready
                        if (fill_at is not None and cycle >= fill_at
                                and store_port_free):
                            store_port_free = False
                            lsu_sq_popleft()
                            c_sb_retires += 1
                            if osca_dec is not None:
                                h_inst = head.inst
                                osca_dec(h_inst.mem_addr, h_inst.mem_size)

            # -- in-order commit from the ROB head -----------------------
            if rob:
                done = rob[0].done_at
                if done is not None and done <= cycle:
                    committed_n = 0
                    while committed_n < width and rob:
                        entry = rob[0]
                        done = entry.done_at
                        if done is None or done > cycle:
                            break
                        seq = entry.seq
                        kind = kind_col[seq]
                        violation = False
                        if kind == 1:
                            if fully_ooo:
                                violation = lsu_commit_load(entry, cycle)
                            else:
                                # inlined CasinoLsu.commit_load: unpin
                                # the TSO line sentinel, then value-check
                                # the snapshotted unresolved older stores
                                if line_pins and entry in line_pins:
                                    line_pins_remove(entry)
                                    line0 = addr_col[seq] >> 6
                                    cnt0 = line_sent_get(line0, 0)
                                    if cnt0 <= 1:
                                        line_sent_pop(line0, None)
                                    else:
                                        line_sentinels[line0] = cnt0 - 1
                                unresolved = entry.unresolved_older
                                if unresolved:
                                    c_sq_searches += 1
                                    c_sq_commit += 1
                                    l_inst = entry.inst
                                    for store in unresolved:
                                        if store.inst.overlaps(l_inst):
                                            violation = True
                                            break
                                    sent_target = entry.sentinel_on
                                    if (sent_target is not None
                                            and sentinels_get(sent_target)
                                            == seq):
                                        del sentinels[sent_target]
                                if violation:
                                    c_mem_viol += 1
                        if violation:
                            # On-commit value-check failed: flush this
                            # load and younger, then re-execute (inlined
                            # CasinoCore._squash + squash_from).
                            from_seq = seq
                            squashed = []
                            while rob and rob[-1].seq >= from_seq:
                                victim = rob.pop()
                                squashed.append(victim)
                                if victim.queue_tag == "dbuf":
                                    dbuf_used -= 1
                            renamer.free_int = free_int
                            renamer.free_fp = free_fp
                            renamer_squash(squashed)
                            free_int = renamer.free_int
                            free_fp = renamer.free_fp
                            for queue in queues:
                                while queue and queue[-1].seq >= from_seq:
                                    queue.pop()
                            lsu_squash(from_seq)
                            c_squashes += 1
                            core._last_squash_seq = from_seq
                            core._last_squash_reason = "mem_order"
                            while n_fq and fq[-1] & _FQ_MASK >= from_seq:
                                fq_pop()
                                n_fq -= 1
                            cursor = from_seq
                            if (blocked_seq is not None
                                    and blocked_seq >= from_seq):
                                blocked_seq = None
                            resume = cycle + mispredict_penalty
                            if resume > stalled_until:
                                stalled_until = resume
                            cur_line = -1
                            stale = [reg for reg, e in last_writer.items()
                                     if e.seq >= from_seq]
                            for reg in stale:
                                del last_writer[reg]
                            break
                        rob_popleft()
                        if kind == 2:
                            # inlined CasinoLsu.commit_store
                            entry.committed = True
                            s_addr = addr_col[seq]
                            if s_addr >= 0:
                                c_mem_stores += 1
                                fill = -1
                                line = s_addr >> l1d_shift
                                fill_at = l1d_mshrs_get(line)
                                if fill_at is None or fill_at <= cycle:
                                    tags = l1d_sets_get(line % l1d_nsets)
                                    if tags is not None and line in tags:
                                        # inlined L1D write-hit (see above)
                                        counters[k_l1d_accesses] += 1.0
                                        l1d_dirty_add(line)
                                        l1d._use_stamp = stamp = \
                                            l1d._use_stamp + 1
                                        tags[line] = stamp
                                        counters[k_l1d_hits] += 1.0
                                        fill = 0
                                if fill < 0:
                                    fill = (l1d_access(s_addr, cycle, True)
                                            - l1d_hit)
                                entry.fill_ready = \
                                    cycle + fill if fill > 0 else cycle
                            else:
                                latency = hier_store(None, cycle)
                                extra = latency - l1d_hit
                                entry.fill_ready = \
                                    cycle + extra if extra > 0 else cycle
                        # inlined ConditionalRenamer.commit/_free
                        if entry.fresh_phys:
                            if dst_col[seq] >= num_int:
                                free_fp += 1
                            else:
                                free_int += 1
                            c_freelist += 1
                        if entry.queue_tag == "dbuf":
                            dbuf_used -= 1
                            c_dbuf += 1
                        c_rob_reads += 1
                        # inlined note_commit
                        if seq != expected_seq:
                            core.cycle = cycle
                            core.dbuf_used = dbuf_used
                            renamer.free_int = free_int
                            renamer.free_fp = free_fp
                            raise SimulationError(
                                f"{name}: out-of-order commit: expected "
                                f"seq {expected_seq}, got {seq} at cycle "
                                f"{cycle} - {core._debug_state()}",
                                core=name, check="program_order",
                                cycle=cycle, expected=expected_seq,
                                got=seq, debug=core._debug_state())
                        expected_seq = seq + 1
                        entry.committed = True
                        c_committed += 1
                        committed_total += 1
                        last_commit_cycle = cycle
                        if schedule is not None:
                            schedule.append(
                                (seq, entry.inst, entry.issue_at, done,
                                 cycle, entry.from_siq, entry.dispatch_at))
                        dst = dst_col[seq]
                        if dst >= 0 and last_writer_get(dst) is entry:
                            del last_writer[dst]
                        if entry.from_siq:
                            c_com_s += 1
                        else:
                            c_com_iq += 1
                        committed_n += 1
                    next_trip = last_commit_cycle + watchdog
                    if max_cycles < next_trip:
                        next_trip = max_cycles

            # -- strict in-order issue from the final IQ -----------------
            budget = width
            if iq:
                issued_n = 0
                while iq and issued_n < budget:
                    entry = iq[0]
                    if entry.n_pending:
                        ready = True
                        for producer in entry.producers:
                            done = producer.done_at
                            if done is None or done > cycle:
                                ready = False
                                break
                        if not ready:
                            c_iq_src += 1
                            break
                    seq = entry.seq
                    needs_dbuf = use_dbuf and dst_col[seq] >= 0
                    if needs_dbuf and dbuf_used >= dbuf_size:
                        c_iq_dbuf += 1
                        break
                    fu_idx = fu_col[seq]
                    if fu_idx == 0:
                        if free_alu <= 0:
                            c_iq_fu += 1
                            break
                        free_alu -= 1
                    elif fu_idx == 2:
                        if free_agu <= 0:
                            c_iq_fu += 1
                            break
                        free_agu -= 1
                    else:
                        if free_fpu <= 0:
                            c_iq_fu += 1
                            break
                        free_fpu -= 1
                    iq_popleft()
                    if needs_dbuf:
                        dbuf_used += 1
                        entry.queue_tag = "dbuf"
                        c_dbuf += 1
                    # inlined ConditionalRenamer.on_iq_issue
                    if (use_dbuf and not entry.fresh_phys
                            and dst_col[seq] >= 0):
                        phys = entry.phys
                        cnt = pending_get(phys, 0)
                        if cnt == 1:
                            del pending_map[phys]
                        elif cnt > 1:
                            pending_map[phys] = cnt - 1
                    # inlined _execute(from_iq=True)
                    entry.issue_at = cycle
                    kind = kind_col[seq]
                    c_issued_iq += 1
                    if 0 < kind < 3:
                        c_issued_iq_mem += 1
                    else:
                        c_issued_iq_nonmem += 1
                    c_issued += 1
                    n_srcs = nsrc_col[seq]
                    if extra_srcs and seq in extra_srcs:
                        n_srcs += len(extra_srcs[seq])
                    c_prf_reads += n_srcs
                    if dst_col[seq] >= 0:
                        c_prf_writes += 1
                    if kind == 1:  # load
                        # inlined load_issued(from_iq=True): IQ loads are
                        # non-speculative — no unresolved snapshot, no
                        # sentinel, no TSO line pin.
                        addr0 = addr_col[seq]
                        if fully_ooo or addr0 < 0:
                            forward = lsu_load_issued(entry, cycle, True)
                        else:
                            forward = None
                            skip = False
                            if osca_counters is not None:
                                c_osca += 1
                                slot = addr0 // osca_granule
                                last_slot = ((addr0 + entry.inst.mem_size
                                              - 1) // osca_granule)
                                out = 0
                                while slot <= last_slot:
                                    v = osca_counters[slot % osca_entries]
                                    if v > out:
                                        out = v
                                    slot += 1
                                if not out:
                                    skip = True
                                    c_osca_skips += 1
                                    entry.osca_skipped = True
                            if not skip:
                                c_sq_searches += 1
                                l_inst = entry.inst
                                for store in lsu_sq:
                                    if (store.seq < seq
                                            and store.issue_at is not None
                                            and store.inst.overlaps(
                                                l_inst)):
                                        if (forward is None
                                                or store.seq > forward.seq):
                                            forward = store
                            entry.unresolved_older = []
                        entry.forward_store = forward
                        if forward is not None:
                            done = cycle + 2
                            c_stl += 1
                        else:
                            c_mem_loads += 1
                            load_addr = addr_col[seq]
                            latency = -1
                            if load_addr >= 0:
                                line = load_addr >> l1d_shift
                                fill_at = l1d_mshrs_get(line)
                                if fill_at is None or fill_at <= cycle:
                                    tags = l1d_sets_get(line % l1d_nsets)
                                    if tags is not None and line in tags:
                                        # inlined L1D read-hit (see above)
                                        counters[k_l1d_accesses] += 1.0
                                        l1d._use_stamp = stamp = \
                                            l1d._use_stamp + 1
                                        tags[line] = stamp
                                        counters[k_l1d_hits] += 1.0
                                        latency = l1d_hit
                            if latency < 0:
                                latency = l1d_access(
                                    load_addr if load_addr >= 0 else None,
                                    cycle)
                            entry.cache_miss = latency > l1d_hit
                            done = cycle + latency
                        entry.done_at = done
                    elif kind == 2:  # store
                        entry.done_at = done = cycle + 1
                        lsu_store_issued(entry, cycle)
                        # violation_seq is only set in fully_ooo mode and
                        # loads never reach the IQ unissued there; mirror
                        # the interpreted poll anyway for exactness.
                        if lsu.violation_seq is not None:
                            victim_seq = lsu.violation_seq
                            lsu.violation_seq = None
                            squashed = []
                            while rob and rob[-1].seq >= victim_seq:
                                victim = rob.pop()
                                squashed.append(victim)
                                if victim.queue_tag == "dbuf":
                                    dbuf_used -= 1
                            renamer.free_int = free_int
                            renamer.free_fp = free_fp
                            renamer_squash(squashed)
                            free_int = renamer.free_int
                            free_fp = renamer.free_fp
                            for queue in queues:
                                while (queue
                                       and queue[-1].seq >= victim_seq):
                                    queue.pop()
                            lsu_squash(victim_seq)
                            c_squashes += 1
                            core._last_squash_seq = victim_seq
                            core._last_squash_reason = "mem_order"
                            while (n_fq
                                   and fq[-1] & _FQ_MASK >= victim_seq):
                                fq_pop()
                                n_fq -= 1
                            cursor = victim_seq
                            if (blocked_seq is not None
                                    and blocked_seq >= victim_seq):
                                blocked_seq = None
                            resume = cycle + mispredict_penalty
                            if resume > stalled_until:
                                stalled_until = resume
                            cur_line = -1
                            stale = [reg for reg, e in last_writer.items()
                                     if e.seq >= victim_seq]
                            for reg in stale:
                                del last_writer[reg]
                    else:
                        entry.done_at = done = cycle + lat_col[seq]
                        if kind == 3 and blocked_seq == seq:
                            # resolve_branch: resume after the redirect
                            blocked_seq = None
                            resume = done + mispredict_penalty
                            if resume > stalled_until:
                                stalled_until = resume
                            c_redirects += 1
                    if done > cycle:
                        bucket = wakeup_cal_get(done)
                        if bucket is None:
                            wakeup_cal[done] = [entry]
                        else:
                            bucket.append(entry)
                        if done < next_wakeup:
                            next_wakeup = done
                    else:
                        waiters = entry.waiters
                        if waiters:
                            for waiter in waiters:
                                waiter.n_pending -= 1
                            waiters.clear()
                    issued_n += 1
                budget -= issued_n

            # -- SpecInO window scan over the cascaded S-IQs -------------
            qi = n_queues - 2
            while qi >= 0:
                queue = queues[qi]
                if not queue:
                    qi -= 1
                    continue
                first = qi == 0
                next_queue = queues[qi + 1]
                next_cap = queue_sizes[qi + 1]
                issued_n = 0
                processed = 0
                passes = 0
                while queue and processed < ws:
                    entry = queue[0]
                    if first:
                        c_siq_exam += 1
                    if entry.n_pending:
                        ready = True
                        for producer in entry.producers:
                            done = producer.done_at
                            if done is None or done > cycle:
                                ready = False
                                break
                    else:
                        ready = True
                    seq = entry.seq
                    kind = kind_col[seq]
                    if ready:
                        if issued_n >= budget:
                            break  # ready but out of slots: wait
                        # inlined _can_issue_spec (break on any blocker:
                        # waiting at the head beats passing)
                        if first:
                            if len(rob) >= rob_size:
                                break
                            dst = dst_col[seq]
                            if dst >= 0 and (free_fp if dst >= num_int
                                             else free_int) <= 0:
                                c_prf_stall += 1
                                break
                            if kind == 2 and len(lsu_sq) >= sq_sb_size:
                                break
                            if (kind == 1 and fully_ooo
                                    and len(lsu.lq) >= lq_size):
                                break
                        if agi_mode and 0 < kind < 3:
                            older = False
                            for other in rob:
                                if other.seq >= seq:
                                    break
                                if (0 < kind_col[other.seq] < 3
                                        and other.issue_at is None):
                                    older = True
                                    break
                            if older:
                                c_agi += 1
                                break
                        fu_idx = fu_col[seq]
                        if fu_idx == 0:
                            if free_alu <= 0:
                                break
                            free_alu -= 1
                        elif fu_idx == 2:
                            if free_agu <= 0:
                                break
                            free_agu -= 1
                        else:
                            if free_fpu <= 0:
                                break
                            free_fpu -= 1
                        queue.popleft()
                        n_srcs = nsrc_col[seq]
                        if extra_srcs and seq in extra_srcs:
                            n_srcs += len(extra_srcs[seq])
                        if first:
                            # inlined _leave_first_siq(passed=False):
                            # rename_speculative -> _alloc (can_alloc held
                            # just above, so the free list cannot be empty)
                            c_rat_reads += n_srcs
                            if dst >= 0:
                                if dst >= num_int:
                                    free_fp -= 1
                                    c_allocs_fp += 1
                                else:
                                    free_int -= 1
                                    c_allocs_int += 1
                                entry.prev_phys = rat[dst]
                                entry.phys = next_phys
                                entry.fresh_phys = True
                                rat[dst] = next_phys
                                next_phys += 1
                                c_rat_writes += 1
                                c_allocs += 1
                            entry.from_siq = True
                            rob_append(entry)
                            c_rob_writes += 1
                            if kind == 2:
                                lsu_sq_append(entry)
                                c_sq_writes += 1
                        # inlined _execute(from_iq=False)
                        entry.issue_at = cycle
                        entry.from_siq = True
                        c_issued_spec += 1
                        if 0 < kind < 3:
                            c_issued_spec_mem += 1
                        else:
                            c_issued_spec_nonmem += 1
                        c_issued += 1
                        c_prf_reads += n_srcs
                        if dst_col[seq] >= 0:
                            c_prf_writes += 1
                        if kind == 1:  # load
                            # inlined load_issued(from_iq=False):
                            # snapshot unresolved older stores, OSCA
                            # filter, SQ search, sentinel, TSO line pin.
                            addr0 = addr_col[seq]
                            if fully_ooo or addr0 < 0:
                                forward = lsu_load_issued(entry, cycle,
                                                          False)
                            else:
                                l_inst = entry.inst
                                if agi_mode:
                                    unresolved = []
                                else:
                                    unresolved = [s for s in lsu_sq
                                                  if s.seq < seq
                                                  and s.issue_at is None]
                                forward = None
                                skip = False
                                if osca_counters is not None:
                                    c_osca += 1
                                    slot = addr0 // osca_granule
                                    last_slot = ((addr0 + l_inst.mem_size
                                                  - 1) // osca_granule)
                                    out = 0
                                    while slot <= last_slot:
                                        v = osca_counters[
                                            slot % osca_entries]
                                        if v > out:
                                            out = v
                                        slot += 1
                                    if not out:
                                        skip = True
                                        c_osca_skips += 1
                                        entry.osca_skipped = True
                                if not skip:
                                    c_sq_searches += 1
                                    for store in lsu_sq:
                                        if (store.seq < seq
                                                and store.issue_at
                                                is not None
                                                and store.inst.overlaps(
                                                    l_inst)):
                                            if (forward is None
                                                    or store.seq
                                                    > forward.seq):
                                                forward = store
                                if forward is not None and unresolved:
                                    fseq = forward.seq
                                    unresolved = [s for s in unresolved
                                                  if s.seq > fseq]
                                entry.unresolved_older = unresolved
                                if unresolved:
                                    sent_target = unresolved[0]
                                    for s in unresolved:
                                        if s.seq < sent_target.seq:
                                            sent_target = s
                                    entry.sentinel_on = sent_target
                                    prev_owner = sentinels_get(sent_target)
                                    if (prev_owner is None
                                            or seq > prev_owner):
                                        sentinels[sent_target] = seq
                                    c_sentinels += 1
                                line0 = addr0 >> 6
                                line_sentinels[line0] = \
                                    line_sent_get(line0, 0) + 1
                                line_pins_append(entry)
                            entry.forward_store = forward
                            if forward is not None:
                                done = cycle + 2
                                c_stl += 1
                            else:
                                c_mem_loads += 1
                                load_addr = addr_col[seq]
                                latency = -1
                                if load_addr >= 0:
                                    line = load_addr >> l1d_shift
                                    fill_at = l1d_mshrs_get(line)
                                    if fill_at is None or fill_at <= cycle:
                                        tags = l1d_sets_get(
                                            line % l1d_nsets)
                                        if (tags is not None
                                                and line in tags):
                                            counters[k_l1d_accesses] += 1.0
                                            l1d._use_stamp = stamp = \
                                                l1d._use_stamp + 1
                                            tags[line] = stamp
                                            counters[k_l1d_hits] += 1.0
                                            latency = l1d_hit
                                if latency < 0:
                                    latency = l1d_access(
                                        load_addr if load_addr >= 0
                                        else None, cycle)
                                entry.cache_miss = latency > l1d_hit
                                done = cycle + latency
                            entry.done_at = done
                        elif kind == 2:  # store
                            entry.done_at = done = cycle + 1
                            lsu_store_issued(entry, cycle)
                            if lsu.violation_seq is not None:
                                victim_seq = lsu.violation_seq
                                lsu.violation_seq = None
                                squashed = []
                                while rob and rob[-1].seq >= victim_seq:
                                    victim = rob.pop()
                                    squashed.append(victim)
                                    if victim.queue_tag == "dbuf":
                                        dbuf_used -= 1
                                renamer.free_int = free_int
                                renamer.free_fp = free_fp
                                renamer_squash(squashed)
                                free_int = renamer.free_int
                                free_fp = renamer.free_fp
                                for squash_q in queues:
                                    while (squash_q and
                                           squash_q[-1].seq >= victim_seq):
                                        squash_q.pop()
                                lsu_squash(victim_seq)
                                c_squashes += 1
                                core._last_squash_seq = victim_seq
                                core._last_squash_reason = "mem_order"
                                while (n_fq and
                                       fq[-1] & _FQ_MASK >= victim_seq):
                                    fq_pop()
                                    n_fq -= 1
                                cursor = victim_seq
                                if (blocked_seq is not None
                                        and blocked_seq >= victim_seq):
                                    blocked_seq = None
                                resume = cycle + mispredict_penalty
                                if resume > stalled_until:
                                    stalled_until = resume
                                cur_line = -1
                                stale = [reg for reg, e
                                         in last_writer.items()
                                         if e.seq >= victim_seq]
                                for reg in stale:
                                    del last_writer[reg]
                        else:
                            entry.done_at = done = cycle + lat_col[seq]
                            if kind == 3 and blocked_seq == seq:
                                blocked_seq = None
                                resume = done + mispredict_penalty
                                if resume > stalled_until:
                                    stalled_until = resume
                                c_redirects += 1
                        if done > cycle:
                            bucket = wakeup_cal_get(done)
                            if bucket is None:
                                wakeup_cal[done] = [entry]
                            else:
                                bucket.append(entry)
                            if done < next_wakeup:
                                next_wakeup = done
                        else:
                            waiters = entry.waiters
                            if waiters:
                                for waiter in waiters:
                                    waiter.n_pending -= 1
                                waiters.clear()
                        issued_n += 1
                        processed += 1
                        continue
                    # Not ready: try to pass it to the next queue.
                    if passes < so and len(next_queue) < next_cap:
                        if first:
                            # inlined _can_pass_first
                            if len(rob) >= rob_size:
                                break
                            dst = dst_col[seq]
                            cnt = 0
                            if dst >= 0:
                                if use_dbuf:
                                    phys = rat[dst]
                                    cnt = pending_get(phys, 0)
                                    if cnt >= pc_max:
                                        c_pass_rename += 1
                                        break
                                elif (free_fp if dst >= num_int
                                      else free_int) <= 0:
                                    c_pass_rename += 1
                                    break
                            if kind == 2 and len(lsu_sq) >= sq_sb_size:
                                break
                            queue.popleft()
                            # inlined _leave_first_siq(passed=True):
                            # rename_passed bumps the shared mapping's
                            # ProducerCount (conditional scheme) or
                            # allocates conventionally
                            n_srcs = nsrc_col[seq]
                            if extra_srcs and seq in extra_srcs:
                                n_srcs += len(extra_srcs[seq])
                            c_rat_reads += n_srcs
                            if dst >= 0:
                                if use_dbuf:
                                    pending_map[phys] = cnt + 1
                                    entry.phys = phys
                                    entry.fresh_phys = False
                                    c_pc_incs += 1
                                else:
                                    if dst >= num_int:
                                        free_fp -= 1
                                        c_allocs_fp += 1
                                    else:
                                        free_int -= 1
                                        c_allocs_int += 1
                                    entry.prev_phys = rat[dst]
                                    entry.phys = next_phys
                                    entry.fresh_phys = True
                                    rat[dst] = next_phys
                                    next_phys += 1
                                    c_rat_writes += 1
                                    c_allocs += 1
                            rob_append(entry)
                            c_rob_writes += 1
                            if kind == 2:
                                lsu_sq_append(entry)
                                c_sq_writes += 1
                        else:
                            queue.popleft()
                        next_queue.append(entry)
                        c_siq_passes += 1
                        passes += 1
                        processed += 1
                        continue
                    break
                budget -= issued_n
                qi -= 1

            # -- dispatch into the first S-IQ ----------------------------
            if n_fq and fq[0] >> _FQ_SHIFT <= cycle:
                space = q0_cap - len(q0)
                limit = space if space < width else width
                dispatched_n = 0
                while dispatched_n < limit and n_fq \
                        and (packed := fq[0]) >> _FQ_SHIFT <= cycle:
                    fq_popleft()
                    n_fq -= 1
                    idx = packed & _FQ_MASK
                    # inlined make_entry
                    producers = []
                    n_srcs = nsrc_col[idx]
                    if n_srcs:
                        writer = last_writer_get(src0_col[idx])
                        if writer is not None:
                            producers.append(writer)
                        if n_srcs > 1:
                            writer = last_writer_get(src1_col[idx])
                            if writer is not None:
                                producers.append(writer)
                            if extra_srcs and idx in extra_srcs:
                                for src in extra_srcs[idx]:
                                    writer = last_writer_get(src)
                                    if writer is not None:
                                        producers.append(writer)
                    # InflightInst built via __new__ + direct slot writes:
                    # skips __init__'s call frame and its defensive
                    # list(producers) copy (the list here is fresh per
                    # dispatch and never reused).
                    entry = new_inflight(InflightInst)
                    entry.inst = objs[idx]
                    entry.seq = idx
                    entry.producers = producers
                    entry.waiters = []
                    entry.done_at = None
                    entry.issue_at = None
                    entry.dispatch_at = cycle
                    entry.committed = False
                    entry.fill_ready = None
                    entry.phys = None
                    entry.prev_phys = None
                    entry.fresh_phys = False
                    entry.from_siq = False
                    entry.unresolved_older = None
                    entry.forward_store = None
                    entry.sentinel_on = None
                    entry.osca_skipped = False
                    entry.cache_miss = False
                    entry.queue_tag = ""
                    n_pending = 0
                    for producer in producers:
                        done = producer.done_at
                        if done is None or done > cycle:
                            producer.waiters.append(entry)
                            n_pending += 1
                    entry.n_pending = n_pending
                    dst = dst_col[idx]
                    if dst >= 0:
                        last_writer[dst] = entry
                    q0.append(entry)
                    c_dispatched += 1
                    dispatched_n += 1

            if acct is not None:
                core._expected_commit_seq = expected_seq
                fetch.blocked_seq = blocked_seq
                fetch.stalled_until = stalled_until
                # Committed this cycle: the last commit is now (cycle 0
                # never commits, and last_commit_cycle starts at 0).
                # Issued this cycle: some issue slot was used.
                acct_on_cycle(core, cycle,
                              last_commit_cycle == cycle and cycle > 0,
                              budget < width)

            # -- fetch ----------------------------------------------------
            if blocked_seq is None and cycle >= stalled_until and cursor < n:
                if n_fq < fetch_capacity:
                    fetched_n = 0
                    ready_tag = (cycle + frontend_latency) << _FQ_SHIFT
                    while fetched_n < width and n_fq < fetch_capacity \
                            and cursor < n:
                        line = line_col[cursor]
                        if line != cur_line:
                            cur_line = line
                            pc = pc_col[cursor]
                            iline = pc >> l1i_shift
                            fill_at = l1i_mshrs_get(iline)
                            if fill_at is None or fill_at <= cycle:
                                tags = l1i_sets_get(iline % l1i_nsets)
                            else:
                                tags = None
                            if tags is not None and iline in tags:
                                # inlined L1I hit: resident line, no
                                # in-flight fill -> no stall
                                counters[k_l1i_accesses] += 1.0
                                l1i._use_stamp = stamp = l1i._use_stamp + 1
                                tags[iline] = stamp
                                counters[k_l1i_hits] += 1.0
                            else:
                                extra = l1i_access(pc, cycle) - l1i_hit
                                if extra > 0:
                                    stalled_until = cycle + extra
                                    break
                        idx = cursor
                        cursor += 1
                        fq_append(ready_tag | idx)
                        n_fq += 1
                        fetched_n += 1
                        c_fetched += 1
                        if kind_col[idx] == 3:  # branch/jump
                            taken = taken_col[idx]
                            if op_col[idx] == _OP_BRANCH:
                                pred = tage_predict_update(
                                    pc_col[idx], taken == 1)
                            else:
                                pred = True
                            if taken:
                                tgt = target_col[idx]
                                predicted = btb_lookup_update(
                                    pc_col[idx], tgt)
                                if not pred or predicted != tgt:
                                    c_gates += 1
                                    blocked_seq = idx
                                break  # taken (or gated): group ends
                            elif pred:
                                c_gates += 1
                                blocked_seq = idx
                                break

            cycle += 1
            if committed_total >= warm_trigger:
                if c_committed:
                    counters["committed"] += float(c_committed)
                    c_committed = 0
                if c_rob_reads:
                    counters["rob_reads"] += float(c_rob_reads)
                    c_rob_reads = 0
                if c_dbuf:
                    counters["dbuf_access"] += float(c_dbuf)
                    c_dbuf = 0
                if c_com_s:
                    counters["committed_s_issue"] += float(c_com_s)
                    c_com_s = 0
                if c_com_iq:
                    counters["committed_iq_issue"] += float(c_com_iq)
                    c_com_iq = 0
                if c_mem_stores:
                    counters["mem_stores"] += float(c_mem_stores)
                    c_mem_stores = 0
                if c_mem_loads:
                    counters["mem_loads"] += float(c_mem_loads)
                    c_mem_loads = 0
                if c_squashes:
                    counters["squashes"] += float(c_squashes)
                    c_squashes = 0
                if c_iq_src:
                    counters["iq_stall_src"] += float(c_iq_src)
                    c_iq_src = 0
                if c_iq_dbuf:
                    counters["iq_stall_dbuf"] += float(c_iq_dbuf)
                    c_iq_dbuf = 0
                if c_iq_fu:
                    counters["iq_stall_fu"] += float(c_iq_fu)
                    c_iq_fu = 0
                if c_issued_iq:
                    counters["issued_iq"] += float(c_issued_iq)
                    c_issued_iq = 0
                if c_issued_iq_mem:
                    counters["issued_iq_mem"] += float(c_issued_iq_mem)
                    c_issued_iq_mem = 0
                if c_issued_iq_nonmem:
                    counters["issued_iq_nonmem"] += \
                        float(c_issued_iq_nonmem)
                    c_issued_iq_nonmem = 0
                if c_issued_spec:
                    counters["issued_spec"] += float(c_issued_spec)
                    c_issued_spec = 0
                if c_issued_spec_mem:
                    counters["issued_spec_mem"] += float(c_issued_spec_mem)
                    c_issued_spec_mem = 0
                if c_issued_spec_nonmem:
                    counters["issued_spec_nonmem"] += \
                        float(c_issued_spec_nonmem)
                    c_issued_spec_nonmem = 0
                if c_issued:
                    counters["issued"] += float(c_issued)
                    c_issued = 0
                if c_prf_reads:
                    counters["prf_reads"] += float(c_prf_reads)
                    c_prf_reads = 0
                if c_prf_writes:
                    counters["prf_writes"] += float(c_prf_writes)
                    c_prf_writes = 0
                if c_stl:
                    counters["stl_forwards"] += float(c_stl)
                    c_stl = 0
                if c_siq_exam:
                    counters["siq_examined"] += float(c_siq_exam)
                    c_siq_exam = 0
                if c_siq_passes:
                    counters["siq_passes"] += float(c_siq_passes)
                    c_siq_passes = 0
                if c_prf_stall:
                    counters["issue_stall_prf"] += float(c_prf_stall)
                    c_prf_stall = 0
                if c_agi:
                    counters["agi_order_stalls"] += float(c_agi)
                    c_agi = 0
                if c_pass_rename:
                    counters["pass_stall_rename"] += float(c_pass_rename)
                    c_pass_rename = 0
                if c_rob_writes:
                    counters["rob_writes"] += float(c_rob_writes)
                    c_rob_writes = 0
                if c_sq_writes:
                    counters["sq_writes"] += float(c_sq_writes)
                    c_sq_writes = 0
                if c_sb_retires:
                    counters["sb_retires"] += float(c_sb_retires)
                    c_sb_retires = 0
                if c_sb_sent:
                    counters["sb_sentinel_blocks"] += float(c_sb_sent)
                    c_sb_sent = 0
                if c_dispatched:
                    counters["dispatched"] += float(c_dispatched)
                    c_dispatched = 0
                if c_fetched:
                    counters["fetched"] += float(c_fetched)
                    c_fetched = 0
                if c_gates:
                    counters["fetch_mispredict_gates"] += float(c_gates)
                    c_gates = 0
                if c_redirects:
                    counters["branch_redirects"] += float(c_redirects)
                    c_redirects = 0
                if c_rat_reads:
                    counters["rat_reads"] += float(c_rat_reads)
                    c_rat_reads = 0
                if c_rat_writes:
                    counters["rat_writes"] += float(c_rat_writes)
                    c_rat_writes = 0
                if c_allocs:
                    counters["reg_allocs"] += float(c_allocs)
                    c_allocs = 0
                if c_allocs_fp:
                    counters["reg_allocs_fp"] += float(c_allocs_fp)
                    c_allocs_fp = 0
                if c_allocs_int:
                    counters["reg_allocs_int"] += float(c_allocs_int)
                    c_allocs_int = 0
                if c_pc_incs:
                    counters["producer_count_incs"] += float(c_pc_incs)
                    c_pc_incs = 0
                if c_freelist:
                    counters["freelist_ops"] += float(c_freelist)
                    c_freelist = 0
                if c_osca:
                    counters["osca_access"] += float(c_osca)
                    c_osca = 0
                if c_osca_skips:
                    counters["osca_search_skips"] += float(c_osca_skips)
                    c_osca_skips = 0
                if c_sq_searches:
                    counters["sq_searches"] += float(c_sq_searches)
                    c_sq_searches = 0
                if c_sentinels:
                    counters["sentinels_set"] += float(c_sentinels)
                    c_sentinels = 0
                if c_sq_commit:
                    counters["sq_commit_searches"] += float(c_sq_commit)
                    c_sq_commit = 0
                if c_mem_viol:
                    counters["mem_order_violations"] += float(c_mem_viol)
                    c_mem_viol = 0
                warm_snapshot = dict(counters)
                warm_cycle = cycle
                warm_trigger = _FAR
                if acct is not None:
                    acct.on_warmup(core)
            # Fused watchdog/budget trip: ``next_trip`` under-approximates
            # the earliest cycle either limit can fire, so one compare
            # covers both; past it, re-derive exactly which (watchdog
            # first, matching the interpreted loop's check order).
            if cycle > next_trip:
                if cycle - last_commit_cycle > watchdog:
                    core.cycle = cycle - 1
                    core.dbuf_used = dbuf_used
                    renamer.free_int = free_int
                    renamer.free_fp = free_fp
                    raise SimulationError(
                        f"{name}: no commit for {watchdog} cycles at "
                        f"cycle {cycle} (deadlock?) - {core._debug_state()}",
                        core=name, check="deadlock_watchdog",
                        cycle=cycle, last_commit_cycle=last_commit_cycle,
                        committed=committed_total,
                        debug=core._debug_state())
                if cycle > max_cycles:
                    core.cycle = cycle - 1
                    core.dbuf_used = dbuf_used
                    renamer.free_int = free_int
                    renamer.free_fp = free_fp
                    raise SimulationError(
                        f"{name}: exceeded {max_cycles} cycles - "
                        f"{core._debug_state()}",
                        core=name, check="cycle_budget", cycle=cycle,
                        max_cycles=max_cycles,
                        committed=committed_total,
                        debug=core._debug_state())
                next_trip = last_commit_cycle + watchdog
                if max_cycles < next_trip:
                    next_trip = max_cycles
    finally:
        if c_committed:
            counters["committed"] += float(c_committed)
        if c_rob_reads:
            counters["rob_reads"] += float(c_rob_reads)
        if c_dbuf:
            counters["dbuf_access"] += float(c_dbuf)
        if c_com_s:
            counters["committed_s_issue"] += float(c_com_s)
        if c_com_iq:
            counters["committed_iq_issue"] += float(c_com_iq)
        if c_mem_stores:
            counters["mem_stores"] += float(c_mem_stores)
        if c_mem_loads:
            counters["mem_loads"] += float(c_mem_loads)
        if c_squashes:
            counters["squashes"] += float(c_squashes)
        if c_iq_src:
            counters["iq_stall_src"] += float(c_iq_src)
        if c_iq_dbuf:
            counters["iq_stall_dbuf"] += float(c_iq_dbuf)
        if c_iq_fu:
            counters["iq_stall_fu"] += float(c_iq_fu)
        if c_issued_iq:
            counters["issued_iq"] += float(c_issued_iq)
        if c_issued_iq_mem:
            counters["issued_iq_mem"] += float(c_issued_iq_mem)
        if c_issued_iq_nonmem:
            counters["issued_iq_nonmem"] += float(c_issued_iq_nonmem)
        if c_issued_spec:
            counters["issued_spec"] += float(c_issued_spec)
        if c_issued_spec_mem:
            counters["issued_spec_mem"] += float(c_issued_spec_mem)
        if c_issued_spec_nonmem:
            counters["issued_spec_nonmem"] += float(c_issued_spec_nonmem)
        if c_issued:
            counters["issued"] += float(c_issued)
        if c_prf_reads:
            counters["prf_reads"] += float(c_prf_reads)
        if c_prf_writes:
            counters["prf_writes"] += float(c_prf_writes)
        if c_stl:
            counters["stl_forwards"] += float(c_stl)
        if c_siq_exam:
            counters["siq_examined"] += float(c_siq_exam)
        if c_siq_passes:
            counters["siq_passes"] += float(c_siq_passes)
        if c_prf_stall:
            counters["issue_stall_prf"] += float(c_prf_stall)
        if c_agi:
            counters["agi_order_stalls"] += float(c_agi)
        if c_pass_rename:
            counters["pass_stall_rename"] += float(c_pass_rename)
        if c_rob_writes:
            counters["rob_writes"] += float(c_rob_writes)
        if c_sq_writes:
            counters["sq_writes"] += float(c_sq_writes)
        if c_sb_retires:
            counters["sb_retires"] += float(c_sb_retires)
        if c_sb_sent:
            counters["sb_sentinel_blocks"] += float(c_sb_sent)
        if c_dispatched:
            counters["dispatched"] += float(c_dispatched)
        if c_fetched:
            counters["fetched"] += float(c_fetched)
        if c_gates:
            counters["fetch_mispredict_gates"] += float(c_gates)
        if c_redirects:
            counters["branch_redirects"] += float(c_redirects)
        if c_rat_reads:
            counters["rat_reads"] += float(c_rat_reads)
        if c_rat_writes:
            counters["rat_writes"] += float(c_rat_writes)
        if c_allocs:
            counters["reg_allocs"] += float(c_allocs)
        if c_allocs_fp:
            counters["reg_allocs_fp"] += float(c_allocs_fp)
        if c_allocs_int:
            counters["reg_allocs_int"] += float(c_allocs_int)
        if c_pc_incs:
            counters["producer_count_incs"] += float(c_pc_incs)
        if c_freelist:
            counters["freelist_ops"] += float(c_freelist)
        if c_osca:
            counters["osca_access"] += float(c_osca)
        if c_osca_skips:
            counters["osca_search_skips"] += float(c_osca_skips)
        if c_sq_searches:
            counters["sq_searches"] += float(c_sq_searches)
        if c_sentinels:
            counters["sentinels_set"] += float(c_sentinels)
        if c_sq_commit:
            counters["sq_commit_searches"] += float(c_sq_commit)
        if c_mem_viol:
            counters["mem_order_violations"] += float(c_mem_viol)
        renamer.free_int = free_int
        renamer.free_fp = free_fp
        renamer._next_phys = next_phys
        core._committed = committed_total
        core._last_commit_cycle = last_commit_cycle
        core._expected_commit_seq = expected_seq
        core.ff_spans = ff_spans
        core.ff_skipped_cycles = ff_skipped
        core.dbuf_used = dbuf_used
        # Write the hoisted frontend state back so post-mortem inspection
        # (debug dumps, error details, drained checks) sees exactly what
        # the interpreted loop would leave behind.
        core.stream.cursor = cursor
        fetch.blocked_seq = blocked_seq
        fetch.stalled_until = stalled_until
        fetch._line = cur_line
        if fq:
            fetch_queue = fetch.queue
            for packed in fq:
                fetch_queue.append(FetchedInst(objs[packed & _FQ_MASK],
                                               packed >> _FQ_SHIFT))

    return cycle, warm_snapshot, warm_cycle
