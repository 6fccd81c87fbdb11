"""Two-party BB84 post-processing: wire format, transports, session machine."""

from .framing import (Abort, DetectionReport, Done, Hello, MatchMask, MsgType,  # noqa: F401
                      QberResult, SampleBits, SampleIndices, SessionParamsMsg,
                      decode_frame, encode_frame)
from .params import SessionParams, SiftedKey  # noqa: F401
from .session import (ROLE_ALICE, ROLE_BOB, SessionReport, alice_match,  # noqa: F401
                      bob_detection_report, bob_sift, run_session)
from .transport import StreamTransport, connect, listen_accept, loopback_pair  # noqa: F401
