package benchmark

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// stackSample is one CPU profile sample: its call stack as function
// names, leaf first, and how many samples hit it.
type stackSample struct {
	frames []string
	n      int64
}

// cpuProfileSamples decodes a profile written by runtime/pprof (gzipped
// profile.proto) into its weighted stacks. Only the fields the package
// attribution needs are read: samples, locations with their inlined
// lines, functions and the string table.
func cpuProfileSamples(data []byte) ([]stackSample, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples []sample
		locFns  = make(map[uint64][]uint64) // location id → function ids, innermost first
		fnName  = make(map[uint64]uint64)   // function id → string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendPacked(s.locs, v, b)
				case 2:
					values = pbAppendPacked(values, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.n = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{frames: frames, n: s.n})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning it and its length (0 when
// truncated).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendPacked appends a repeated varint field occurrence: a single
// value (wire type 0) or a packed run (wire type 2, payload non-nil).
func pbAppendPacked(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := pbVarint(payload)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}

// gcFrame and schedFrame recognize the Go runtime's garbage collector and
// goroutine scheduler. The simulator hands control between actor
// goroutines over channels, so channel parking and wake-up is the sim
// engine's scheduling cost.
var (
	gcFrame    = regexp.MustCompile(`^runtime\.(gc|bgsweep|bgscavenge|markroot|scanobject|scanblock|scanstack|greyobject|sweepone|wbBuf|\(\*gcWork\)|\(\*sweepLocked\)|\(\*mspan\)\.sweep)`)
	schedFrame = regexp.MustCompile(`^runtime\.(chansend|chanrecv|selectgo|gopark|goready|mcall|park_m|schedule|findRunnable|goexit|newproc|gogo|sysmon)`)
)

// attribute assigns a sample to the package category its cost belongs
// to: the garbage collector wherever it appears on the stack; otherwise
// the innermost frame of this module, with runtime and standard-library
// helpers (memmove, map access, allocation, hashing) folded into the
// code that called them, except that channel handoffs count as the
// scheduler's. Stacks of the runtime alone are the scheduler's; stacks
// with no frame of this module are other.
func attribute(frames []string) string {
	for _, f := range frames {
		if gcFrame.MatchString(f) {
			return "runtime_gc"
		}
	}
	sched, onlyRuntime := false, true
	for _, f := range frames {
		pkg := funcPackage(f)
		if pkg == "main" || strings.HasPrefix(pkg, "xemem/") || pkg == "xemem" {
			if sched {
				return "runtime_sched"
			}
			return category(pkg)
		}
		if pkg != "runtime" {
			onlyRuntime = false
		} else if schedFrame.MatchString(f) {
			sched = true
		}
	}
	if onlyRuntime {
		return "runtime_sched"
	}
	return "other"
}

// funcPackage extracts the import path from a profile function name such
// as "xemem/internal/pagetable.(*Table).set".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// category maps a package of this module to its host.pkg metric: the
// benchmark itself is "bench", the tracer "trace", an internal package
// with a metric of its own that package, and the rest "other".
func category(pkg string) string {
	switch {
	case pkg == "main" || pkg == "xemem/benchmark":
		return "bench"
	case pkg == "xemem/internal/sim/trace":
		return "trace"
	}
	name, ok := strings.CutPrefix(pkg, "xemem/internal/")
	if !ok {
		return "other"
	}
	name, _, _ = strings.Cut(name, "/")
	if _, ok := Lookup("host.pkg." + name + "_pct"); ok {
		return name
	}
	return "other"
}
