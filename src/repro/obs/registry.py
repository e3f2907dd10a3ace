"""A metrics registry: one namespace over every metrics surface.

The registry stores no metrics of its own. It mounts components that
expose ``snapshot() -> dict`` (and optionally ``report() -> str``) — the
serving metrics, the tracer, the drift monitor, a telemetry — under
dotted names and renders them as one surface; snapshots are deep copies.
"""

from __future__ import annotations

import copy

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Mounted components, rendered as one surface::

        reg = MetricsRegistry()
        reg.mount("serve", result.metrics)     # anything with snapshot()
        reg.mount("trace", tracer)
        print(reg.report())
        data = reg.snapshot()                  # one nested, JSON-able dict
    """

    def __init__(self):
        self._mounted: dict[str, object] = {}

    def mount(self, name: str, component) -> None:
        """Mount any object exposing ``snapshot() -> dict`` under ``name``."""
        if not hasattr(component, "snapshot"):
            raise TypeError(
                f"component {name!r} has no snapshot() method")
        self._mounted[name] = component

    def snapshot(self) -> dict:
        return copy.deepcopy({name: component.snapshot()
                              for name, component in self._mounted.items()})

    def report(self) -> str:
        lines: list[str] = []
        for name, component in self._mounted.items():
            lines.append(f"-- {name} --")
            lines.append(component.report() if hasattr(component, "report")
                         else str(component.snapshot()))
        return "\n".join(lines)
