package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"rqp/internal/server"
	"rqp/internal/types"
)

// wireConn is the benchmark's client: it speaks the protocol through the
// server package's public frame functions, and timestamps frames as they
// arrive, which the server package's own Client cannot do (it returns only
// after Ready). Statement latency ends at Complete, time to first row at
// the first Row frame, and admission wait runs from the WLM_QUEUED notice
// to the WLM_ADMITTED notice.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// now is the clock frames are stamped with; tests replace it.
	now func() time.Time
}

// reply is one command cycle as seen at the client.
type reply struct {
	firstRow   time.Time // first Row frame, or Complete when there were none
	complete   time.Time // Complete or Error frame
	queuedAt   time.Time // WLM_QUEUED notice, zero if none
	admittedAt time.Time // WLM_ADMITTED notice, zero if none
	tag        string
	rows       uint64 // row count carried by Complete
	cost       float64
	errCode    string // ERR_* code of an Error frame, "" on success
	errMsg     string
	digest     digest // canonical fingerprint of the Row frames received
}

// admitWait is the time the statement spent queued for admission.
func (r *reply) admitWait() time.Duration {
	if r.queuedAt.IsZero() || r.admittedAt.IsZero() {
		return 0
	}
	return r.admittedAt.Sub(r.queuedAt)
}

// dialWire connects and performs the startup handshake.
func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	w := newWireConn(c)
	if err := w.send(server.MsgStartup, server.StartupMsg{Version: server.ProtocolVersion}); err != nil {
		c.Close()
		return nil, fmt.Errorf("startup: %w", err)
	}
	var r reply
	if err := w.cycle(&r); err != nil {
		c.Close()
		return nil, fmt.Errorf("startup: %w", err)
	}
	if r.errCode != "" {
		c.Close()
		return nil, fmt.Errorf("startup: %s: %s", r.errCode, r.errMsg)
	}
	return w, nil
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, br: bufio.NewReaderSize(c, 32<<10), bw: bufio.NewWriterSize(c, 4<<10), now: time.Now}
}

func (w *wireConn) close() {
	_ = server.WriteFrame(w.bw, server.MsgTerminate, nil)
	_ = w.bw.Flush() // the connection is closed next either way
	w.c.Close()
}

// send writes one message and flushes it.
func (w *wireConn) send(typ byte, m server.Encoder) error {
	if err := server.WriteMsg(w.bw, typ, m); err != nil {
		return err
	}
	return w.bw.Flush()
}

// cycle reads frames until Ready, stamping and folding them into r. A
// command cycle is [Notice*] [RowDesc Row*] (Complete | Error) [Notice*]
// Ready; the handshake cycle is a bare Ready.
func (w *wireConn) cycle(r *reply) error {
	var dg digester
	for {
		f, err := server.ReadFrame(w.br, server.MaxFrame)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		at := w.now()
		switch f.Type {
		case server.MsgNotice:
			m, err := server.DecodeNotice(f.Payload)
			if err != nil {
				return err
			}
			switch m.Code {
			case server.NoticeQueued:
				r.queuedAt = at
			case server.NoticeAdmitted:
				r.admittedAt = at
			}
		case server.MsgRowDesc:
			if _, err := server.DecodeRowDesc(f.Payload); err != nil {
				return err
			}
		case server.MsgRow:
			m, err := server.DecodeRow(f.Payload)
			if err != nil {
				return err
			}
			if r.firstRow.IsZero() {
				r.firstRow = at
			}
			dg.add(types.Row(m.Values))
		case server.MsgComplete:
			m, err := server.DecodeComplete(f.Payload)
			if err != nil {
				return err
			}
			r.complete = at
			if r.firstRow.IsZero() {
				r.firstRow = at
			}
			r.tag, r.rows, r.cost = m.Tag, m.Rows, m.CostUnits
		case server.MsgError:
			m, err := server.DecodeError(f.Payload)
			if err != nil {
				return err
			}
			r.complete = at
			if r.firstRow.IsZero() {
				r.firstRow = at
			}
			r.errCode, r.errMsg = m.Code, m.Message
			if m.Code == server.CodeProto {
				return fmt.Errorf("protocol error: %s", m.Message)
			}
		case server.MsgReady:
			r.digest = dg.d
			return nil
		default:
			return fmt.Errorf("unexpected frame 0x%02x", f.Type)
		}
	}
}

// prepare names a statement on the server.
func (w *wireConn) prepare(name, sqlText string) error {
	if err := w.send(server.MsgPrepare, server.PrepareMsg{Name: name, SQL: sqlText}); err != nil {
		return err
	}
	var r reply
	if err := w.cycle(&r); err != nil {
		return err
	}
	if r.errCode != "" {
		return fmt.Errorf("prepare %s: %s: %s", name, r.errCode, r.errMsg)
	}
	return nil
}

// run executes one statement and returns its reply and send time. A
// prepared statement is a Bind cycle followed by an Execute cycle; its
// latency runs from sending Bind.
func (w *wireConn) run(s *stmt) (reply, time.Time, error) {
	var r reply
	t0 := w.now()
	if s.prep == "" {
		if err := w.send(server.MsgQuery, server.QueryMsg{SQL: s.sql, Params: s.params}); err != nil {
			return r, t0, err
		}
		err := w.cycle(&r)
		return r, t0, err
	}
	if err := w.send(server.MsgBind, server.BindMsg{Name: s.prep, Params: s.params}); err != nil {
		return r, t0, err
	}
	var b reply
	if err := w.cycle(&b); err != nil {
		return r, t0, err
	}
	if b.errCode != "" {
		return b, t0, nil
	}
	if err := w.send(server.MsgExecute, server.ExecuteMsg{}); err != nil {
		return r, t0, err
	}
	err := w.cycle(&r)
	return r, t0, err
}
