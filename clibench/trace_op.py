"""Run one benchmark operation with spans around collectiva's layers.

usage: python -X importtime trace_op.py SPANS OP cli ARGS...
       python -X importtime trace_op.py SPANS OP script PATH ARGS...

Imports ``collectiva.cli``, wraps the functions ``layers.WRAPPED`` names in
every collectiva namespace that holds them, then runs ``cli.main(ARGS)`` or
the library script, and writes the spans to SPANS as JSON lines at exit.
"""

import atexit
import functools
import json
import runpy
import sys
import time
import tracemalloc

import layers


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = {"op": self.op, "name": name, "start": 0.0, "end": 0.0,
                "parent": self.stack[-1] if self.stack else None}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        layer_alloc = name in layers.ALLOC_LAYERS and not tracemalloc.is_tracing()
        if layer_alloc:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
            if layer_alloc:
                span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        span.update(layers.attributes(name, args, result))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Replace each wrapped function wherever a collectiva module holds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "collectiva" or k.startswith("collectiva."))]
        for mod_name, names in layers.WRAPPED.items():
            mod = sys.modules[f"collectiva.{mod_name}"]
            for fname in names:
                span_name = f"{mod_name}.{fname.rpartition('.')[2]}"
                if "." in fname:  # a classmethod
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth].__func__
                    setattr(cls, meth, classmethod(self.wrap(span_name, orig)))
                    continue
                orig = getattr(mod, fname)
                traced = self.wrap(span_name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def main():
    spans_path, op, kind, *rest = sys.argv[1:]
    import collectiva.cli as cli

    tracer = Tracer(op)
    tracer.install()
    atexit.register(tracer.dump, spans_path)
    if kind == "cli":
        sys.exit(tracer.call("cli.main", cli.main, rest))
    sys.argv = rest
    tracer.call("script.main", runpy.run_path, rest[0], run_name="__main__")


if __name__ == "__main__":
    main()
