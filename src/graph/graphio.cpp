#include "graph/graphio.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pr::graph {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' && line[j] != '#') ++j;
    tokens.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("edge list line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

std::string to_edge_list(const Graph& g) {
  std::ostringstream out;
  out << "# " << g.node_count() << " nodes, " << g.edge_count() << " edges\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "node " << g.display_name(v) << "\n";
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    out << "edge " << g.display_name(g.edge_u(e)) << " " << g.display_name(g.edge_v(e));
    if (g.edge_weight(e) != 1.0) out << " " << g.edge_weight(e);
    out << "\n";
  }
  return out.str();
}

std::string to_dot(const Graph& g, const EdgeSet* failed) {
  std::ostringstream out;
  out << "graph network {\n  node [shape=ellipse];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "  \"" << g.display_name(v) << "\";\n";
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    out << "  \"" << g.display_name(g.edge_u(e)) << "\" -- \""
        << g.display_name(g.edge_v(e)) << "\"";
    std::vector<std::string> attrs;
    if (g.edge_weight(e) != 1.0) {
      std::ostringstream w;
      w << "label=\"" << g.edge_weight(e) << "\"";
      attrs.push_back(w.str());
    }
    if (failed != nullptr && failed->contains(e)) {
      attrs.emplace_back("color=red");
      attrs.emplace_back("style=dashed");
    }
    if (!attrs.empty()) {
      out << " [";
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        out << (i ? ", " : "") << attrs[i];
      }
      out << "]";
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

Graph from_edge_list(std::string_view text) {
  Graph g;
  const auto get_or_add = [&g](const std::string& label) -> NodeId {
    if (auto v = g.find_node(label)) return *v;
    return g.add_node(label);
  };

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "node") {
      if (tokens.size() != 2) fail(line_no, "expected 'node <label>'");
      if (g.find_node(tokens[1]).has_value()) fail(line_no, "duplicate node label");
      g.add_node(tokens[1]);
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        fail(line_no, "expected 'edge <u> <v> [weight]'");
      }
      const NodeId u = get_or_add(tokens[1]);
      const NodeId v = get_or_add(tokens[2]);
      Weight w = 1.0;
      if (tokens.size() == 4) {
        try {
          std::size_t consumed = 0;
          w = std::stod(tokens[3], &consumed);
          if (consumed != tokens[3].size()) throw std::invalid_argument("trailing junk");
        } catch (const std::exception&) {
          fail(line_no, "bad weight '" + tokens[3] + "'");
        }
      }
      try {
        g.add_edge(u, v, w);
      } catch (const std::exception& ex) {
        fail(line_no, ex.what());
      }
    } else {
      fail(line_no, "unknown record '" + tokens[0] + "'");
    }
  }
  return g;
}

}  // namespace pr::graph
