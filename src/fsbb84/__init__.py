"""Free-space daylight BB84: Monte-Carlo link simulator plus protocol stack."""
