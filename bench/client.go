package main

import (
	"bufio"
	"bytes"
	"net"
	"time"
)

// client is the socket target: one connection, one request in flight
// (closed loop), driven from the harness's only goroutine.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	dead bool // a transport error ends the conversation: later ops fail at once
	opCounts
}

// opTimeout bounds one round trip; a resume replaying a long journal is the
// slowest expected one.
const opTimeout = 60 * time.Second

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Responses are at most a stats snapshot or ~100 rows.
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 1<<20)}, nil
}

func (c *client) counts() *opCounts { return &c.opCounts }

// do sends one pre-encoded request line and reads the response line. Inside
// the timed section the response is only prefix-checked, so the client's
// own JSON cost is not in the round trip.
func (c *client) do(_ opKind, line []byte) ([]byte, time.Duration) {
	c.attempted++
	if c.dead {
		c.fail("connection lost")
		return nil, 0
	}
	c.conn.SetDeadline(time.Now().Add(opTimeout))
	start := time.Now()
	if _, err := c.conn.Write(line); err != nil {
		c.dead = true
		c.fail("send %s: %v", bytes.TrimSpace(line), err)
		return nil, time.Since(start)
	}
	resp, err := c.r.ReadSlice('\n')
	took := time.Since(start)
	if err != nil {
		c.dead = true
		c.fail("receive for %s: %v", bytes.TrimSpace(line), err)
		return nil, took
	}
	if !bytes.HasPrefix(resp, okPrefix) {
		c.fail("%s → %s", bytes.TrimSpace(line), bytes.TrimSpace(resp))
		return nil, took
	}
	return resp, took
}
