// Command mdwtopo inspects the BMIN topology and routing machinery: switch
// wiring and reachability, unicast routes, multidestination branch trees,
// multiport product covers, and binomial software-multicast schedules.
//
// Examples:
//
//	mdwtopo -stages 2 -wiring
//	mdwtopo -route 0:13
//	mdwtopo -mcast 5:1,2,8,9,33 -tree
//	mdwtopo -mcast 5:1,2,8,9,33 -multiport
//	mdwtopo -mcast 5:1,2,8,9,33 -binomial
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mdworm/internal/bitset"
	"mdworm/internal/collective"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

func main() {
	var (
		arity     = flag.Int("arity", 4, "down/up ports per switch")
		stages    = flag.Int("stages", 3, "switch stages (nodes = arity^stages)")
		irregular = flag.String("irregular", "", "build a random tree instead: switches:maxHosts:maxChildren:seed")
		wiring    = flag.Bool("wiring", false, "print every switch and its wiring")
		route     = flag.String("route", "", "print the unicast route src:dst")
		mcast     = flag.String("mcast", "", "multicast spec src:d1,d2,... for -tree/-multiport/-binomial")
		tree      = flag.Bool("tree", false, "print the hardware multidestination branch tree")
		multiport = flag.Bool("multiport", false, "print the multiport product cover")
		binomial  = flag.Bool("binomial", false, "print the U-MIN binomial schedule")
		repUp     = flag.Bool("replicate-up", true, "replicate on the up path")
	)
	flag.Parse()

	var net *topology.Network
	var err error
	if *irregular != "" {
		spec, perr := parseTreeSpec(*irregular)
		if perr != nil {
			fail(perr)
		}
		net, err = topology.NewRandomTree(spec)
		if err != nil {
			fail(err)
		}
		fmt.Printf("irregular tree: switches=%d hosts=%d depth=%d\n\n",
			len(net.Switches), net.N, net.Stages-1)
	} else {
		net, err = topology.NewKaryTree(*arity, *stages)
		if err != nil {
			fail(err)
		}
		fmt.Printf("k-ary n-tree: arity=%d stages=%d nodes=%d switches=%d\n\n",
			net.Arity, net.Stages, net.N, len(net.Switches))
	}

	router := &routing.Router{Net: net, ReplicateOnUpPath: *repUp, Policy: routing.UpHash}

	if *wiring {
		printWiring(net)
	}
	if *route != "" {
		src, dst := parsePair(*route)
		msg := &flit.Message{ID: 1, Src: src}
		hops, err := router.UnicastHops(src, dst, msg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("unicast %d -> %d: %d switch hops:", src, dst, len(hops))
		for _, h := range hops {
			sw := net.Switches[h]
			fmt.Printf(" sw%d(s%d,%d)", h, sw.Stage, sw.Pos)
		}
		fmt.Println()
	}
	if *mcast != "" {
		src, dests := parseMulticast(*mcast)
		if *tree {
			printTree(net, router, src, dests)
		}
		if *multiport {
			if !net.Kary {
				fail(fmt.Errorf("multiport encoding requires a k-ary tree"))
			}
			printMultiport(net, src, dests)
		}
		if *binomial {
			printBinomial(src, dests)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mdwtopo:", err)
	os.Exit(1)
}

func parseTreeSpec(s string) (topology.TreeSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return topology.TreeSpec{}, fmt.Errorf("expected switches:maxHosts:maxChildren:seed, got %q", s)
	}
	vals := make([]int, 4)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return topology.TreeSpec{}, err
		}
		vals[i] = v
	}
	return topology.TreeSpec{
		Switches:    vals[0],
		MinHosts:    0,
		MaxHosts:    vals[1],
		MaxChildren: vals[2],
		Seed:        uint64(vals[3]),
	}, nil
}

func parsePair(s string) (int, int) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		fail(fmt.Errorf("expected src:dst, got %q", s))
	}
	a, err1 := strconv.Atoi(parts[0])
	b, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		fail(fmt.Errorf("bad src:dst %q", s))
	}
	return a, b
}

func parseMulticast(s string) (int, []int) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		fail(fmt.Errorf("expected src:d1,d2,..., got %q", s))
	}
	src, err := strconv.Atoi(parts[0])
	if err != nil {
		fail(err)
	}
	var dests []int
	for _, d := range strings.Split(parts[1], ",") {
		v, err := strconv.Atoi(strings.TrimSpace(d))
		if err != nil {
			fail(err)
		}
		dests = append(dests, v)
	}
	return src, dests
}

func printWiring(net *topology.Network) {
	for _, sw := range net.Switches {
		fmt.Printf("sw%d stage=%d pos=%d reach=%v\n", sw.ID, sw.Stage, sw.Pos, sw.ReachAll())
		for pn := range sw.Ports {
			pt := &sw.Ports[pn]
			switch {
			case pt.Proc >= 0:
				fmt.Printf("  p%d %-4s -> proc %d\n", pn, pt.Kind, pt.Proc)
			case pt.PeerSwitch >= 0:
				fmt.Printf("  p%d %-4s -> sw%d.p%d  reach=%v\n", pn, pt.Kind, pt.PeerSwitch, pt.PeerPort, pt.Reach)
			default:
				fmt.Printf("  p%d %-4s unconnected\n", pn, pt.Kind)
			}
		}
	}
	fmt.Println()
}

// printTree walks the hardware multidestination worm's branch tree the way
// switches would replicate it, printing one line per hop.
func printTree(net *topology.Network, router *routing.Router, src int, dests []int) {
	fmt.Printf("hardware branch tree from %d to %v (LCA stage %d):\n",
		src, dests, net.LCAStage(src, bitset.FromSlice(net.N, dests)))
	type hop struct {
		sw        int
		dests     bitset.Set
		ascending bool
		depth     int
	}
	swID, _ := net.ProcAttach(src)
	stack := []hop{{sw: swID, dests: bitset.FromSlice(net.N, dests), ascending: true, depth: 0}}
	var dec routing.Decision
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sw := net.Switches[h.sw]
		if err := router.Route(sw, h.dests, h.ascending, &dec); err != nil {
			fail(err)
		}
		indent := strings.Repeat("  ", h.depth)
		fmt.Printf("%ssw%d(s%d,%d) dests=%v\n", indent, sw.ID, sw.Stage, sw.Pos, h.dests)
		for _, b := range dec.Down {
			pt := &sw.Ports[b.Port]
			if pt.Proc >= 0 {
				fmt.Printf("%s  deliver -> proc %d\n", indent, pt.Proc)
				continue
			}
			stack = append(stack, hop{sw: pt.PeerSwitch, dests: b.Dests, ascending: false, depth: h.depth + 1})
		}
		if !dec.UpDests.Empty() {
			up := dec.UpCandidates[0]
			stack = append(stack, hop{sw: sw.Ports[up].PeerSwitch, dests: dec.UpDests, ascending: true, depth: h.depth + 1})
		}
	}
}

func printMultiport(net *topology.Network, src int, dests []int) {
	cover, err := routing.MultiportCover(net, src, dests)
	if err != nil {
		fail(err)
	}
	fmt.Printf("multiport cover from %d to %v: %d worm(s)\n", src, dests, len(cover))
	for i, ps := range cover {
		fmt.Printf("  worm %d: lca-stage=%d ports=%v covers %v\n", i, ps.LCAStage, ps.PortSets, ps.Dests(net.Arity))
	}
}

func printBinomial(src int, dests []int) {
	phase, err := collective.ValidateTree(src, dests)
	if err != nil {
		fail(err)
	}
	fmt.Printf("binomial U-MIN schedule from %d to %v (%d phases):\n",
		src, dests, collective.BinomialPhases(len(dests)))
	for _, d := range dests {
		fmt.Printf("  node %d receives in phase %d\n", d, phase[d])
	}
}
