"""Two-party BB84 post-processing: wire format, transports, session machine."""
