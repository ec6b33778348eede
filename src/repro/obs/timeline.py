"""ASCII superframe Gantt: slots × channel offsets, plus flow windows.

``repro timeline`` renders a saved schedule as a character grid — one
row per channel offset, one column per slot::

    offset 0 |##2.#...|
    offset 1 |#..#....|
              0    5

``.`` is an empty cell, ``#`` a cell holding one transmission, and a
digit (``2``-``9``, ``+`` beyond) the occupant count of a *reuse* cell —
the paper's shared cells stand out at a glance.  With a flow set, each
flow gets a release→deadline window row underneath (``-`` inside the
window, ``#`` where one of its transmissions is placed), making missed
laxity and tight instances visible next to the grid that caused them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedule import Schedule
    from repro.flows.flow import FlowSet

#: Grid glyphs: empty cell, exclusive cell, reuse-cell counts.
EMPTY, SINGLE, MANY = ".", "#", "+"


def _cell_char(count: int) -> str:
    if count == 0:
        return EMPTY
    if count == 1:
        return SINGLE
    return str(count) if count <= 9 else MANY


def _ruler(start: int, end: int) -> str:
    """Tick labels every 5 slots, aligned under the grid columns."""
    width = end - start + 1
    chars = [" "] * width
    for column in range(width):
        slot = start + column
        if slot % 5 == 0:
            label = str(slot)
            if column + len(label) <= width:
                for k, ch in enumerate(label):
                    if chars[column + k] == " ":
                        chars[column + k] = ch
    return "".join(chars)


def render_timeline(schedule: "Schedule",
                    flow_set: Optional["FlowSet"] = None,
                    start: int = 0, end: Optional[int] = None,
                    ) -> str:
    """Render the schedule grid (and flow windows) as text.

    Args:
        schedule: The schedule to draw.
        flow_set: When given, append one release→deadline window row per
            flow instance overlapping the slot range.
        start: First slot column (inclusive).
        end: Last slot column (inclusive); defaults to the makespan's
            last occupied slot (or ``start`` for an empty schedule).
    """
    if end is None:
        end = max(schedule.makespan() - 1, start)
    end = min(end, schedule.num_slots - 1)
    start = max(0, start)
    if start > end:
        raise ValueError(f"empty slot range [{start}, {end}]")

    label_width = len(f"offset {schedule.num_offsets - 1}")
    lines: List[str] = [
        f"slots {start}..{end} of {schedule.num_slots}, "
        f"{schedule.num_offsets} offsets, "
        f"{len(schedule)} transmissions, "
        f"{schedule.num_reused_cells()} reuse cells"]
    for offset in range(schedule.num_offsets):
        row = "".join(_cell_char(schedule.cell_size(slot, offset))
                      for slot in range(start, end + 1))
        lines.append(f"{f'offset {offset}':>{label_width}} |{row}|")
    lines.append(" " * (label_width + 2) + _ruler(start, end))

    reused = [(s, c, txs) for s, c, txs in schedule.reused_cells()
              if start <= s <= end]
    if reused:
        lines.append("reuse cells:")
        for slot, offset, transmissions in reused:
            links = ", ".join(
                f"({t.request.sender} -> {t.request.receiver})"
                for t in transmissions)
            lines.append(f"  slot {slot} offset {offset}: {links}")

    if flow_set is not None:
        lines.append("flow windows (- window, # placement):")
        by_flow: dict = {}
        for entry in schedule.entries:
            by_flow.setdefault(entry.request.flow_id, []).append(entry)
        for flow in flow_set:
            row = [" "] * (end - start + 1)
            hyperperiod = schedule.num_slots
            for instance in flow.instances(hyperperiod):
                release = instance.release_slot
                deadline = min(instance.deadline_slot, end)
                for slot in range(max(release, start), deadline + 1):
                    row[slot - start] = "-"
            for entry in by_flow.get(flow.flow_id, []):
                if start <= entry.slot <= end:
                    row[entry.slot - start] = SINGLE
            lines.append(f"{f'flow {flow.flow_id}':>{label_width}} "
                         f"|{''.join(row)}|")
    return "\n".join(lines)


def parse_slot_range(text: str) -> tuple:
    """Parse ``"A:B"`` / ``"A:"`` / ``":B"`` into (start, end-or-None)."""
    if ":" not in text:
        value = int(text)
        return value, value
    left, _, right = text.partition(":")
    start = int(left) if left else 0
    end = int(right) if right else None
    return start, end
