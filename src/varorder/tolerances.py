"""Every numerical tolerance of the package, defined once; see the README's Tolerances table."""

PAIR_TOL_SCALE = 1e-8  # eigenvalue units per unit of max(1, |X|_F): default tol, table lookup
FAIL_MARGIN_TOL = 1e-9  # variance units, absolute: witness margin floor, state-sampling slack
LIP_TOL = 1e-9  # relative to max(max |x|, max |f(x)|) over the table: slack in
#                 |f(x) - f(y)| <= c |x - y|
GAP_RTOL = 1e-9  # relative to the gap-matrix scale: ties at its maximum, round trips
CHECK_TOL = 1e-10  # an identity that outside input, or two internal routes, must satisfy;
#                    the oracle's gradient stop, x min(1, |A|_F^2 + |B|_F^2); the two
#                    Born-measure variance routes and the eigen sandwich, x max(1, second moment)
ROUND_RTOL = 1e-12  # rounding, relative to the magnitude involved (1 for a unit norm); the
#                    floor of every given comparison tol, x max |X|_F
DUST = 1e-14  # probability mass, absolute: lighter Born atoms are dropped, below -DUST refused
ORACLE_AGREE_TOL = 1e-6  # variance units, x min(1, |A|_F^2 + |B|_F^2): an oracle best this
#                          small agrees with "holds"
