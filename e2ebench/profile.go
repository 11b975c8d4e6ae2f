package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The profiled pass attributes CPU to the repository's layers from outside
// the program: it decodes the runtime/pprof CPU profile the harness
// recorded and maps every sample's stack onto the package that did the
// work. No code of the measured program is instrumented.

// layers are the packages CPU is attributed to, in report order. "mobisense"
// is the root package (batch pool, tracer, service façade); "runtime" holds
// samples with no mobisense frame (GC, scheduler, net/http, the harness).
var layers = []string{
	"mobisense", "sim", "core", "spatial", "cpvf", "floor", "bug2",
	"field", "coverage", "store", "server", "runtime",
}

// layerOf maps a fully qualified Go function name onto its layer. Utility
// packages (geom, stats, metrics, and any other internal package that is
// not a layer) report "" so their samples fold into the calling layer;
// functions outside the module report "" too.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "mobisense" {
		return "mobisense"
	}
	name, ok := strings.CutPrefix(pkg, "mobisense/internal/")
	if !ok {
		return ""
	}
	for _, l := range layers {
		if l == name {
			return l
		}
	}
	return ""
}

// attribute returns the layer a sample's CPU counts to as self time — the
// innermost layer frame, or "runtime" when the stack has none — and every
// layer that appears on the stack (inclusive time). frames are leaf first.
func attribute(frames []string) (self string, incl []string) {
	for _, fn := range frames {
		l := layerOf(fn)
		if l == "" {
			continue
		}
		if self == "" {
			self = l
		}
		seen := false
		for _, x := range incl {
			seen = seen || x == l
		}
		if !seen {
			incl = append(incl, l)
		}
	}
	if self == "" {
		return "runtime", []string{"runtime"}
	}
	return self, incl
}

// layerCPU is the profiled pass's attribution: seconds of CPU per layer.
type layerCPU struct {
	total      float64
	self, incl map[string]float64
}

func (c *layerCPU) add(x layerCPU) {
	if c.self == nil {
		c.self, c.incl = map[string]float64{}, map[string]float64{}
	}
	c.total += x.total
	for l, v := range x.self {
		c.self[l] += v
	}
	for l, v := range x.incl {
		c.incl[l] += v
	}
}

// attributeProfile decodes a gzipped pprof CPU profile and attributes every
// sample's CPU time to layers.
func attributeProfile(data []byte) (layerCPU, error) {
	p, err := parseProfile(data)
	if err != nil {
		return layerCPU{}, err
	}
	out := layerCPU{self: map[string]float64{}, incl: map[string]float64{}}
	for _, s := range p.samples {
		sec := float64(s.cpuNS) / 1e9
		self, incl := attribute(s.frames)
		out.total += sec
		out.self[self] += sec
		for _, l := range incl {
			out.incl[l] += sec
		}
	}
	return out, nil
}

// The decoder below reads just enough of the pprof protobuf encoding
// (github.com/google/pprof/proto/profile.proto) to recover each sample's
// CPU time and symbolized stack: samples, locations with their (inlined)
// lines, functions and the string table.

type profSample struct {
	cpuNS  int64
	frames []string // leaf first, inlined frames expanded
}

type profile struct {
	samples []profSample
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSamples     = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

func parseProfile(data []byte) (profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return profile{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profile{}, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes [][]byte
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			sampleTypes = append(sampleTypes, b)
		case profStringTable:
			strs = append(strs, string(b))
		case profSamples:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, v, b)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return profile{}, err
	}

	// The CPU value is the sample type whose type string is "cpu" (the
	// other is the sample count).
	cpuIdx := -1
	for i, st := range sampleTypes {
		err := eachField(st, func(num int, v uint64, _ []byte) error {
			if num == valueTypeType && v < uint64(len(strs)) && strs[v] == "cpu" {
				cpuIdx = i
			}
			return nil
		})
		if err != nil {
			return profile{}, err
		}
	}
	if cpuIdx < 0 {
		return profile{}, errors.New("profile: no cpu sample type")
	}
	var p profile
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return profile{}, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{cpuNS: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.frames = append(ps.frames, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value (wire types 0, 1 and 5 as raw bits) or its
// length-delimited payload.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (payload)
// or not (v).
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
