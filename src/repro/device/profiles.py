"""Additional embedded-device profiles.

The paper evaluates on one platform (Jetson Xavier). A key promise of the
NetCut methodology is *portability*: rerunning the (cheap) latency
estimation on a different device re-selects the right TRN for it without
retraining everything. These profiles span the embedded spectrum around the
calibrated Xavier model so that portability can be demonstrated
(``benchmarks/test_ext_device_portability.py``):

- ``nano()`` — a much weaker device (lower bandwidth and clocks, higher
  launch overhead): deadlines force deeper cuts.
- ``agx_boosted()`` — a stronger device (MAXN-style power mode): the same
  deadline admits bigger networks.

All three share measurement character (noise, warm-up, event overhead)
with :func:`repro.device.xavier.xavier`.
"""

from __future__ import annotations

from dataclasses import replace

from .spec import DeviceSpec
from .xavier import xavier

__all__ = ["nano", "agx_boosted", "DEVICE_PROFILES"]


def nano() -> DeviceSpec:
    """A Jetson-Nano-class device: ~3× weaker than the Xavier profile."""
    base = xavier()
    return replace(base, name="jetson-nano-sim",
                   peak_gflops=base.peak_gflops / 4.0,
                   bandwidth_gbps=base.bandwidth_gbps / 3.0,
                   launch_overhead_us=base.launch_overhead_us * 2.0)


def agx_boosted() -> DeviceSpec:
    """The Xavier profile in a boosted power mode: ~2× faster."""
    base = xavier()
    return replace(base, name="jetson-agx-boosted-sim",
                   peak_gflops=base.peak_gflops * 2.0,
                   bandwidth_gbps=base.bandwidth_gbps * 2.0,
                   launch_overhead_us=base.launch_overhead_us / 2.0)


#: All device profiles by name.
DEVICE_PROFILES = {
    "xavier": xavier,
    "nano": nano,
    "agx_boosted": agx_boosted,
}
