"""Numerical frame diagnostics for multiplication-operator orbits on the
Hardy space of the unit disk.

The package represents disk functions by truncated power series, builds
orbits {phi^n f} under multiplication by a symbol phi, estimates frame
bounds from finite sections of the frame operator, and runs scripted
verification suites for the structural statements governing when such an
orbit can be a frame.

Each name is imported from the module that defines it, for example
`from hardyframes.frames import frame_bounds_estimate`.
"""
