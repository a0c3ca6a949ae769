"""Solvers for two-player games on weighted graphs where one player tries
to force the payoff of the play (liminf, limsup, mean-payoff, discounted
sum or total sum) into a finite union of rational intervals."""

__version__ = "0.1.0"
