"""Shrinking and spreading of a free Gaussian wavepacket.

The position-momentum correlation C = (XP + PX)/2 sets the sign of the
width change: d<X^2>/dt = (2/m)<C>, and <C> itself grows linearly at the
constant rate 2<H>.  A packet prepared with negative correlation (chirp
> 0) therefore contracts to a waist and then expands, with the momentum
distribution frozen and Heisenberg's bound intact throughout.
"""

import numpy as np

from fockfield import LatticeSpec, ehrenfest_residuals, gaussian_packet, trajectory

lattice = LatticeSpec(num_sites=256, spacing=1.0, mass=1.0)
packet = gaussian_packet(lattice, x0=0.0, p0=0.0, sigma0=8.0, chirp=1.0)

times = np.arange(0.0, 128.01, 8.0)
records = trajectory(packet, times)

print(f"{'t':>6} {'dx':>8} {'<C>':>9} {'<H>':>9} {'dx*dp':>8}")
for r in records:
    print(f"{r.t:6.1f} {r.dx:8.3f} {r.mean_c:9.4f} {r.mean_h:9.5f} {r.dx * r.dp:8.5f}")

widths = [r.dx for r in records]
waist = int(np.argmin(widths))
print(f"\nwaist at t = {records[waist].t:.0f}: width {widths[waist]:.3f} "
      f"(started at {widths[0]:.3f})")
print("correlation crosses zero there and keeps growing:",
      records[waist - 1].mean_c < 0 < records[waist + 1].mean_c)

# the packet carries its lattice, so the mass m = 1 comes from there
report = ehrenfest_residuals(packet, np.arange(0.0, 0.05001, 1e-3))
print(f"\nfinite-difference residuals: width law {report.width_residual:.2e}, "
      f"correlation law {report.correlation_residual:.2e}")

sigma0 = 8.0
drift_free = gaussian_packet(lattice, 0.0, 0.0, sigma0)
print("\nuncorrelated packet follows the textbook spreading law:")
for t in (0.0, 64.0, 128.0):
    rec = trajectory(drift_free, [t])[0]
    predicted = sigma0 * np.sqrt(1 + (t / (2 * sigma0**2)) ** 2)
    print(f"  t {t:6.1f}: width {rec.dx:.6f}  predicted {predicted:.6f}")
