"""Learning in the limit over eventually periodic binary words.

Equivalence relations on the Cantor space, cut down to the eventually
periodic fragment where every question has an exact answer: two-level
formula codes, oracle deciders, learners synthesized from codes, session
simulation with convergence certificates, and adversaries that defeat
learners and falsify candidate codes.
"""

__version__ = "0.1.0"
