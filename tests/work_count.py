"""Count the bytecode instructions that one ``gradedlie.cli.main`` call executes.

Usage: ``PYTHONPATH=src python tests/work_count.py ARGV...`` prints the count and the
exit code.  Run each job in a fresh interpreter: the algebra builds are cached per
process, so a second job in one process counts less than it does alone.  Imports
happen before counting starts and the report goes to a buffer, so the count is the
job's own work.  On 3.12 and later it counts ``sys.monitoring`` INSTRUCTION events;
on 3.11 and earlier, ``sys.settrace`` opcode events with ``f_trace_opcodes``, which is
exact there but reads 0 on 3.12 and undercounts on 3.13.  The two counters differ,
so a count is comparable only on one interpreter version.
"""

import contextlib
import io
import sys

from gradedlie import cli


def _settrace(argv):
    executed = 0

    def local(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        code = cli.main(argv)
    finally:
        sys.settrace(None)
    return executed, code


def _monitoring(argv):
    monitoring = sys.monitoring
    tool, executed = monitoring.PROFILER_ID, 0

    def instruction(code, offset):
        nonlocal executed
        executed += 1

    monitoring.use_tool_id(tool, "work_count")
    monitoring.register_callback(tool, monitoring.events.INSTRUCTION, instruction)
    monitoring.set_events(tool, monitoring.events.INSTRUCTION)
    try:
        code = cli.main(argv)
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.free_tool_id(tool)
    return executed, code


def count(argv):
    """(instructions executed by ``cli.main(argv)``, its exit code)."""
    counter = _monitoring if hasattr(sys, "monitoring") else _settrace
    with contextlib.redirect_stdout(io.StringIO()):
        return counter(argv)


if __name__ == "__main__":
    print(*count(sys.argv[1:]))
