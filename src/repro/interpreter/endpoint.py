"""A wire-protocol envelope over any backend.

Emulators "mimic the cloud by exposing identical API interfaces" (§2):
DevOps tooling talks a JSON envelope (action + parameters) and expects
request ids, typed error envelopes and consistent metadata.  This layer
wraps any backend — learned emulator, reference cloud, baseline — in
that shape, so a client cannot tell which it is speaking to except
through behaviour (which is the whole point of alignment).

The envelope follows the query-API convention::

    request:  {"Action": "CreateVpc", "Parameters": {"CidrBlock": ...}}
    success:  {"ResponseMetadata": {"RequestId": ...}, <data fields>}
    failure:  {"ResponseMetadata": {"RequestId": ...},
               "Error": {"Code": ..., "Message": ...}}

The endpoint is thread-safe: the serving layer shares one instance
across worker threads, so request-id allocation is serialized (each id
is still a pure function of the endpoint seed and its position in the
admission order — recorded traffic replays byte-identically).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

from .errors import ApiResponse


class ProtocolError(Exception):
    """The request envelope itself is malformed."""


class RequestIdSequence:
    """Deterministic, thread-safe request-id allocation.

    Ids are a hash of ``(seed, counter)``, formatted UUID-style.  The
    counter increment is atomic so concurrent callers never mint
    duplicate ids; the *sequence* of ids is fixed by the seed, and
    which request gets which id is fixed by admission order.
    """

    __slots__ = ("seed", "_counter", "_lock")

    def __init__(self, seed: int = 1):
        self.seed = seed
        self._counter = 0
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            self._counter += 1
            counter = self._counter
        digest = hashlib.sha256(
            f"{self.seed}:{counter}".encode()
        ).hexdigest()
        return (f"{digest[:8]}-{digest[8:12]}-{digest[12:16]}-"
                f"{digest[16:20]}-{digest[20:32]}")


@dataclass
class JsonEndpoint:
    """A JSON front door for one backend.

    Request ids are deterministic (a hash of the endpoint seed and the
    request counter) so recorded traffic replays byte-identically.
    """

    backend: object
    seed: int = 1
    #: Optional run sink; per-request spans and counters land here.
    telemetry: object | None = None
    _ids: RequestIdSequence = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._ids is None:
            self._ids = RequestIdSequence(self.seed)

    def _request_id(self) -> str:
        return self._ids.next()

    # -- dict envelope -----------------------------------------------------

    def dispatch(self, request: dict) -> dict:
        """Handle one decoded request envelope."""
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        action = request.get("Action")
        if not isinstance(action, str) or not action:
            raise ProtocolError("request must carry a string 'Action'")
        parameters = request.get("Parameters", {})
        if parameters is None:
            parameters = {}
        if not isinstance(parameters, dict):
            raise ProtocolError("'Parameters' must be a JSON object")
        telemetry = self.telemetry
        if telemetry is None or getattr(telemetry, "obs", None) is not None:
            # Under the serving observability plane the front door has
            # already opened this request's root span; a second
            # per-request span here would only double the span count
            # the tail sampler is bounding.
            response = self.backend.invoke(action, parameters)
        else:
            with telemetry.span(
                "endpoint.request", kind="endpoint", action=action
            ) as span:
                response = self.backend.invoke(action, parameters)
                telemetry.metrics.counter("endpoint.requests").inc()
                if not response.success:
                    span.set("error_code", response.error_code)
                    telemetry.metrics.counter("endpoint.errors").inc()
        return self._envelope(response)

    def _envelope(self, response: ApiResponse) -> dict:
        body: dict = {
            "ResponseMetadata": {"RequestId": self._request_id()},
        }
        if response.success:
            body.update(response.data)
        else:
            body["Error"] = {
                "Code": response.error_code,
                "Message": response.error_message,
            }
            # Failure responses normally carry no data; the serving
            # layer uses the slot for throttle metadata (Retry-After
            # hints), which rides inside the error object the way the
            # cloud's own throttle annotations do.
            if response.data:
                body["Error"].update(response.data)
        return body

    # -- text envelope -----------------------------------------------------------

    def handle(self, payload: "str | bytes", dispatch=None) -> str:
        """Handle one JSON-encoded request; always returns valid JSON.

        Envelope problems — undecodable bytes, unparsable JSON, a
        non-object top level, a missing or mistyped ``Action`` or
        ``Parameters`` — come back as a 400-style
        ``SerializationException`` rather than an exception: wire front
        doors don't crash on bad input.  ``dispatch`` (default
        :meth:`dispatch`) runs the decoded envelope; a front door
        passes its own so wire requests take its whole request path.
        """
        if isinstance(payload, (bytes, bytearray)):
            try:
                payload = bytes(payload).decode("utf-8")
            except UnicodeDecodeError:
                return json.dumps(self._serialization_error(
                    "request body is not valid UTF-8"
                ))
        try:
            request = json.loads(payload)
        except (json.JSONDecodeError, ValueError) as error:
            message = getattr(error, "msg", str(error))
            return json.dumps(self._serialization_error(
                f"could not parse request: {message}"
            ))
        try:
            body = (dispatch or self.dispatch)(request)
        except ProtocolError as error:
            body = self._serialization_error(str(error))
        return json.dumps(body)

    def _serialization_error(self, message: str) -> dict:
        return {
            "ResponseMetadata": {"RequestId": self._request_id()},
            "Error": {
                "Code": "SerializationException",
                "Message": message,
            },
        }

    @staticmethod
    def is_error(body: dict) -> bool:
        return "Error" in body
