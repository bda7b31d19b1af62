package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// A minimal pcap/Ethernet/IPv4/TCP decoder. It exists so the tests can
// round-trip the writer's output — validating checksums and stream
// contents the way an external tool would — and doubles as a reference
// for reading the exported captures programmatically.

// Packet is one decoded TCP/IPv4 frame.
type Packet struct {
	Time     time.Time
	SrcIP    [4]byte
	DstIP    [4]byte
	SrcPort  uint16
	DstPort  uint16
	Seq, Ack uint32
	Flags    byte
	Payload  []byte
}

// SYN/ACK helpers.
func (p *Packet) SYN() bool { return p.Flags&flagSYN != 0 }
func (p *Packet) ACK() bool { return p.Flags&flagACK != 0 }

// Parse decodes a classic pcap stream, verifying the IPv4 and TCP
// checksums of every frame.
func Parse(r io.Reader) ([]Packet, error) {
	var gh [24]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	if binary.LittleEndian.Uint32(gh[0:4]) != magicMicroseconds {
		return nil, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(gh[0:4]))
	}
	if lt := binary.LittleEndian.Uint32(gh[20:24]); lt != linkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}

	var packets []Packet
	for {
		var ph [16]byte
		if _, err := io.ReadFull(r, ph[:]); err != nil {
			if err == io.EOF {
				return packets, nil
			}
			return nil, fmt.Errorf("pcap: packet header: %w", err)
		}
		caplen := binary.LittleEndian.Uint32(ph[8:12])
		if caplen > snapLen {
			return nil, fmt.Errorf("pcap: capture length %d exceeds snaplen", caplen)
		}
		frame := make([]byte, caplen)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("pcap: truncated frame: %w", err)
		}
		p, err := decodeFrame(frame)
		if err != nil {
			return nil, err
		}
		p.Time = time.Unix(int64(binary.LittleEndian.Uint32(ph[0:4])),
			int64(binary.LittleEndian.Uint32(ph[4:8]))*1000)
		packets = append(packets, p)
	}
}

func decodeFrame(frame []byte) (Packet, error) {
	var p Packet
	if len(frame) < etherLen+ipHeaderLen+tcpHeaderLen {
		return p, fmt.Errorf("pcap: frame too short (%d bytes)", len(frame))
	}
	if et := binary.BigEndian.Uint16(frame[12:14]); et != etherTypeIPv4 {
		return p, fmt.Errorf("pcap: unexpected ethertype %#x", et)
	}
	ip := frame[etherLen:]
	if ip[0]>>4 != 4 || int(ip[0]&0xF)*4 != ipHeaderLen {
		return p, fmt.Errorf("pcap: unexpected IP header %#x", ip[0])
	}
	if ip[9] != ipProtoTCP {
		return p, fmt.Errorf("pcap: unexpected protocol %d", ip[9])
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen+etherLen != len(frame) {
		return p, fmt.Errorf("pcap: IP length %d does not match frame %d", totalLen, len(frame))
	}
	if checksum(ip[:ipHeaderLen], 0) != 0 {
		return p, fmt.Errorf("pcap: bad IPv4 checksum")
	}
	copy(p.SrcIP[:], ip[12:16])
	copy(p.DstIP[:], ip[16:20])

	tcp := ip[ipHeaderLen:totalLen]
	if len(tcp) < tcpHeaderLen {
		return p, fmt.Errorf("pcap: TCP header truncated")
	}
	// Verify the TCP checksum: recompute with the field zeroed.
	seg := make([]byte, len(tcp))
	copy(seg, tcp)
	want := binary.BigEndian.Uint16(seg[16:18])
	binary.BigEndian.PutUint16(seg[16:18], 0)
	if got := tcpChecksum(p.SrcIP, p.DstIP, seg); got != want {
		return p, fmt.Errorf("pcap: bad TCP checksum: got %#04x want %#04x", got, want)
	}

	p.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	p.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	p.Seq = binary.BigEndian.Uint32(tcp[4:8])
	p.Ack = binary.BigEndian.Uint32(tcp[8:12])
	p.Flags = tcp[13]
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < tcpHeaderLen || dataOff > len(tcp) {
		return p, fmt.Errorf("pcap: bad TCP data offset %d", dataOff)
	}
	p.Payload = tcp[dataOff:]
	return p, nil
}

// StreamKey identifies one direction of one connection.
type StreamKey struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
}

// Reassemble concatenates payload bytes per direction, in sequence
// order (the writer emits in-order segments).
func Reassemble(packets []Packet) map[StreamKey][]byte {
	streams := map[StreamKey][]byte{}
	for i := range packets {
		p := &packets[i]
		if len(p.Payload) == 0 {
			continue
		}
		k := StreamKey{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort}
		streams[k] = append(streams[k], p.Payload...)
	}
	return streams
}
