"""Run one snapstack command in this fresh interpreter and time it.

Usage: python3 child.py RESULT.json [--trace SPANS.json --trace-id ID] -- ARGV...

`setup_s` covers `import snapstack.harness` plus `load_config` (when the
command takes a config), which every CLI call pays. `command_s` covers
`snapstack.harness.main(ARGV)`. The result file also carries the exit code
and the process's peak RSS. Only the standard library is imported before
the setup timer starts.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """This process's peak RSS. On Linux ru_maxrss also keeps the peak of the
    process image that exec replaced (run.py), so read VmHWM."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1 :]
    result_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t0 = time.perf_counter()
    import snapstack.harness as harness

    if "--config" in command:
        harness.load_config(command[command.index("--config") + 1])
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer(opts[opts.index("--trace-id") + 1])
        tracer.install()

    t1 = time.perf_counter()
    if tracer is None:
        code = harness.main(command)
    else:
        code = tracer.wrap(f"cmd.{command[0]}", harness.main)(command)
    command_s = time.perf_counter() - t1

    if tracer is not None:
        tracer.dump(trace_path, command[0])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "command_s": command_s,
        "exit": code,
        "maxrss_kb": peak_rss_kb(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
