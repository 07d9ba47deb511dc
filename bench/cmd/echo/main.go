// Command echo is the benchmark's null reflector: every datagram that arrives
// on the listen address is sent, unchanged, to the target address. It uses
// the same one-read-one-write socket calls as sailfish-gw's serve loop and
// does nothing in between, so the rate the load generator reaches against it
// is the generator's own ceiling.
//
//	echo <listen addr> <target addr>
package main

import (
	"log"
	"net"
	"os"
)

func main() {
	if len(os.Args) != 3 {
		log.Fatal("usage: echo <listen addr> <target addr>")
	}
	laddr, err := net.ResolveUDPAddr("udp", os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	target, err := net.ResolveUDPAddr("udp", os.Args[2])
	if err != nil {
		log.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("echo: serving on %s", laddr)
	buf := make([]byte, 9216)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := conn.WriteToUDP(buf[:n], target); err != nil {
			log.Fatal(err)
		}
	}
}
