"""Feedback stabilization of canard cycles in planar fast-slow systems.

Import from the submodules; the package namespace re-exports nothing.

- :mod:`canardctl.errors`       typed faults
- :mod:`canardctl.core`         conserved quantity, scaled levels, parameter containers
- :mod:`canardctl.models`       fold normal form and van der Pol vector fields
- :mod:`canardctl.blowup`       rescaling charts, transition maps, germ check
- :mod:`canardctl.controllers`  level, chart, centre-manifold and composite controllers
- :mod:`canardctl.dopri`        Dormand-Prince 5(4) tableau, step kernels, dense output
- :mod:`canardctl.sim`          embedded RK45 integrator with event detection
- :mod:`canardctl.mmo`          loop classification and pattern supervision
- :mod:`canardctl.svgplot`      deterministic SVG plots
- :mod:`canardctl.verify`       invariant suite behind `canard-ctl verify`
- :mod:`canardctl.cli`          `canard-ctl` experiment runner
"""
