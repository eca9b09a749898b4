package udm

import "fmt"

// Bulk transfer: FUGU handled messages larger than the 16-word send
// descriptor with an associated user-level DMA mechanism (out of scope in
// the paper, cited as [21]). This file provides the equivalent service at
// the library level: InjectBulk fragments a payload into wire messages and
// the receiving endpoint reassembles them, invoking the user handler once
// with the complete payload. In-order per-pair delivery makes reassembly
// need no sequence numbers beyond a transfer id.

// hBulkFrag is the reserved handler id carrying bulk fragments. User code
// must not register handlers in the reserved range 0xf0-0xff.
const hBulkFrag = 0xf0

// bulkXfer is one in-flight reassembly. The payload is assembled straight
// into a Msg from the endpoint's free list, which the handler then receives
// and the runtime recycles like any other (see Msg).
type bulkXfer struct {
	msg *Msg
	got int
}

// InjectBulk sends a payload of any length to dst; the handler runs once at
// the destination with the complete payload in msg.Args (msg.Bulk set).
// Small payloads that fit one message still go through the fragment path so
// cost accounting stays uniform.
func (e *Env) InjectBulk(dst int, handler uint64, data ...uint64) {
	ep := e.EP
	max := ep.MaxArgs() - 4 // transfer id, offset, total, handler
	if max < 1 {
		panic("udm: descriptor too small for bulk fragments")
	}
	id := uint64(ep.Node())<<32 | uint64(ep.nextXfer)
	ep.nextXfer++
	if len(data) == 0 {
		e.Inject(dst, hBulkFrag, id, 0, 0, handler)
		return
	}
	buf := ep.Scratch(4 + min(max, len(data)))
	for off := 0; off < len(data); off += max {
		end := min(off+max, len(data))
		args := append(buf[:0], id, uint64(off), uint64(len(data)), handler)
		args = append(args, data[off:end]...)
		e.Inject(dst, hBulkFrag, args...)
	}
	ep.PutScratch(buf)
}

// Scratch returns a word slice of length n from the endpoint's free list,
// for building a payload that is sent and then dropped; hand it back with
// PutScratch once the send has returned. Each caller takes its own slice
// rather than sharing one buffer: an inject spends cycles before the NI
// copies the words, and an interrupt taken meanwhile may build and send
// another payload on the same endpoint.
func (ep *EP) Scratch(n int) []uint64 {
	k := len(ep.scratchFree)
	if k == 0 {
		return make([]uint64, n)
	}
	b := ep.scratchFree[k-1]
	ep.scratchFree[k-1] = nil
	ep.scratchFree = ep.scratchFree[:k-1]
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

// PutScratch returns a slice taken with Scratch to the free list.
func (ep *EP) PutScratch(b []uint64) { ep.scratchFree = append(ep.scratchFree, b) }

// registerBulk installs the fragment reassembly handler on the endpoint.
func (ep *EP) registerBulk() {
	ep.bulk = make(map[uint64]bulkXfer)
	ep.On(hBulkFrag, func(e *Env, m *Msg) {
		id, off, total, handler := m.Args[0], int(m.Args[1]), int(m.Args[2]), m.Args[3]
		x, ok := ep.bulk[id]
		if !ok {
			x.msg = ep.getMsg()
			x.msg.setArgs(total)
			x.msg.Handler = handler
		}
		words := m.Args[4:]
		copy(x.msg.Args[off:], words)
		x.got += len(words)
		if x.got < total {
			ep.bulk[id] = x
			return
		}
		delete(ep.bulk, id)
		h, ok := ep.handlers[x.msg.Handler]
		if !ok {
			panic(fmt.Sprintf("udm: node %d: no handler registered for bulk id %d", ep.Node(), x.msg.Handler))
		}
		ep.Delivered++
		x.msg.Fast = m.Fast
		x.msg.Bulk = true
		env := ep.getEnv()
		env.T = e.T
		env.inHandler = true
		h(env, x.msg)
		ep.putEnv(env)
		ep.putMsg(x.msg)
	})
}
