"""The stream front door: the oracle for the protocol parser.

:class:`~repro.serve.server.FrontDoor` once served each connection with
``asyncio.start_server``: a coroutine read the request line and every
header line with its own ``asyncio.wait_for(reader.readline(), 10.0)``,
then ``Content-Length`` body bytes with ``readexactly``.  The shipped
front door parses the same requests in one ``asyncio.Protocol`` per
connection under one deadline.  This module keeps the stream code,
unchanged, so tests can send the same requests to both and require the
same bytes back.

:class:`StreamFrontDoor` differs from the shipped front door only in
the protocol each connection gets; routing (``_route``) is shared.
"""

from __future__ import annotations

import asyncio

from repro.serve.server import _REASONS, FrontDoor

__all__ = ["StreamFrontDoor"]


class StreamFrontDoor(FrontDoor):
    """The front door with the stream-reader request parser."""

    def _connection(self) -> asyncio.BaseProtocol:
        # What asyncio.start_server(self._handle, ...) builds per connection.
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=2**16, loop=loop)
        return asyncio.StreamReaderProtocol(reader, self._handle, loop=loop)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, ctype, body, extra = await self._respond(reader)
        except Exception:
            status, ctype, body, extra = 500, "text/plain", b"internal error\n", {}
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        headers += [f"{k}: {v}" for k, v in extra.items()]
        try:
            writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, bytes, dict[str, str]]:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400, "text/plain", b"malformed request line\n", {}
            method, path = parts[0], parts[1]
            content_length = 0
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    content_length = int(value.strip())
            body = (
                await asyncio.wait_for(reader.readexactly(content_length), timeout=10.0)
                if content_length
                else b""
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            return 400, "text/plain", b"malformed request\n", {}
        return self._route(method, path, body)
