package keys_test

import (
	"fmt"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/keys"
)

// Example shows the §IV-E content pipeline: the Channel Server rotates
// the evolving key, prepends the 8-bit serial to each packet, and a
// receiver holding the key window decrypts — while keys outside the
// window (forward secrecy) and tampered packets (hijack detection) fail.
func Example() {
	rng := cryptoutil.NewSeededReader(1)
	schedule, _ := keys.NewSchedule(rng)

	// The receiver's window of recent key iterations.
	ring := keys.NewRing(keys.DefaultWindow)
	ring.Add(schedule.Current())

	// Seal a content packet under the current iteration.
	packet, _ := keys.NewPacketSealer(schedule.Current()).Seal(rng, []byte("frame 1"), []byte("chA"))
	fmt.Println("serial prefix:", packet[0])

	plain, err := keys.OpenPacket(ring, packet, []byte("chA"))
	fmt.Printf("decrypted: %s (err=%v)\n", plain, err)

	// Rotate past the window: the old key no longer helps a latecomer.
	for i := 0; i < keys.DefaultWindow+1; i++ {
		next, _ := schedule.Rotate()
		ring.Add(next)
	}
	_, err = keys.OpenPacket(ring, packet, []byte("chA"))
	fmt.Println("after rotations:", err)

	// Tampered content trips GCM authentication.
	fresh, _ := keys.NewPacketSealer(schedule.Current()).Seal(rng, []byte("frame 2"), []byte("chA"))
	fresh[len(fresh)-1] ^= 1
	_, err = keys.OpenPacket(ring, fresh, []byte("chA"))
	fmt.Println("tampered:", err)
	// Output:
	// serial prefix: 0
	// decrypted: frame 1 (err=<nil>)
	// after rotations: keys: no key for packet serial
	// tampered: keys: content authentication failed (possible hijack)
}
