"""The two names the benchmark harness imports: a coincidence rate behind two
analyzer plates is their rotation-overlap law, which ``overlap`` owns in
floats and in Fractions. No module of the program imports this one."""

from .overlap import closed_form_probability as fringe_probability
from .overlap import closed_form_probability_exact as fringe_probability_exact
