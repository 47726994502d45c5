"""Free braid words: moves, parities, the one-term parity bracket, deciders.

The package re-exports nothing; import each name from the module that
defines it, for example `freebraid.words.parse_word`.
"""

__version__ = "0.1.0"
