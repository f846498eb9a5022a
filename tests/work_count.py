"""Count the bytecode instructions that one ``gradedlie.cli.main`` call executes.

Usage: ``PYTHONPATH=src python tests/work_count.py ARGV...`` prints the count and the
exit code.  Run each job in a fresh interpreter: the algebra builds are cached per
process, so a second job in one process counts less than it does alone.  Imports
happen before tracing starts and the report goes to a buffer, so the count is the
job's own work.  It counts with ``sys.settrace`` and ``f_trace_opcodes``, which is
exact on 3.11; the same counter reads 0 on 3.12 and undercounts on 3.13.
"""

import contextlib
import io
import sys

from gradedlie import cli


def count(argv):
    """(instructions executed by ``cli.main(argv)``, its exit code)."""
    executed = 0

    def local(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    with contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(call)
        try:
            code = cli.main(argv)
        finally:
            sys.settrace(None)
    return executed, code


if __name__ == "__main__":
    print(*count(sys.argv[1:]))
