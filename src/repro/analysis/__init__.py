"""Analysis helpers: distributions, evaluation, report rendering."""
